module Key = Gkm_crypto.Key
module Packet = Gkm_transport.Packet
open Gkm_crypto.Codec

let version = 2

type cls = [ `Short | `Long ]

type rekey = {
  rekey_no : int;
  org : int;
  epoch : int;
  root : int;
  seq : int;
  total : int;
  packet : Packet.t;
}

type path = (int * Key.t) list

type t =
  | Join of { cls : cls; loss : float }
  | Rekey of rekey
  | Nack of { rekey_no : int; seqs : int list }
  | Resync_req of { member : int; epoch : int; auth : bytes }
  | Resync of {
      member : int;
      rekey_no : int;
      epoch : int;
      root : int;
      path : path;
      ticket : bytes;
    }
  | Leave of { member : int }
  | Ping of { token : int64 }
  | Pong of { token : int64 }
  | Error_msg of { code : int; detail : string }
  | Sealed of { epoch : int; seq : int64; ct : bytes }
  | Rejoin of { have_epoch : int; have_state : bool; ticket : bytes }
  | Rejoin_ack of { member : int; ct : bytes }

(* ERROR codes *)
let err_version = 1
let err_protocol = 2
let err_evicted = 3
let err_auth = 4

(* 5 is reserved: never assign it. *)
let err_ticket = 6

let tag = function
  (* 1, 2 and 4 are reserved (the retired HELLO, HELLO_ACK and
     JOIN_ACK): never assign them. *)
  | Join _ -> 3
  | Rekey _ -> 5
  | Nack _ -> 6
  (* 7 is reserved (the retired RETX): never assign it. *)
  | Resync_req _ -> 8
  | Resync _ -> 9
  | Leave _ -> 10
  | Ping _ -> 11
  | Pong _ -> 12
  | Error_msg _ -> 13
  | Sealed _ -> 14
  (* 15 is reserved (the retired TICKET): never assign it. *)
  | Rejoin _ -> 16
  | Rejoin_ack _ -> 17

let tag_name = function
  | 3 -> "JOIN"
  | 5 -> "REKEY"
  | 6 -> "NACK"
  | 8 -> "RESYNC_REQ"
  | 9 -> "RESYNC"
  | 10 -> "LEAVE"
  | 11 -> "PING"
  | 12 -> "PONG"
  | 13 -> "ERROR"
  | 14 -> "SEALED"
  | 16 -> "REJOIN"
  | 17 -> "REJOIN_ACK"
  | n -> Printf.sprintf "type-%d" n

(* One rule for every body: numbers are LEB128 varints (SEALED's
   epoch label too), fixed-size material (keys, tokens, JOIN's loss)
   keeps its width, and a trailing byte string takes the rest of the
   body with no length. Member ids, epochs and rekey numbers keep the i32 range they
   had as fixed fields (and still have in snapshots and the client's
   resumption blob); packet indices keep the u16 range that bounds a
   member's reassembly array. Node ids are signed (the synthetic DEK id
   is -1) and any int: a 63-bit varint cannot alias through a wider
   integer, so a decoded id always re-encodes to the bytes it came
   from. *)
let add_idx buf v = add_uvarint_max buf ~max:0xFFFF v
let idx r = uvarint_max r ~max:0xFFFF

(* Paths are (node id, raw key) pairs: the wire equivalent of the
   catch-up unicast ([Organization.member_path]). *)
let add_path buf path =
  add_vlist buf
    (fun buf (node, k) ->
      add_varint buf node;
      add_key buf k)
    path

let read_path r =
  vlist r ~min_item_size:(1 + Key.size) (fun r ->
      let node = varint r in
      let k = key r in
      (node, k))

let add_rekey buf m =
  add_u31 buf m.rekey_no;
  add_u8 buf m.org;
  add_u31 buf m.epoch;
  add_varint buf m.root;
  add_idx buf m.seq;
  add_idx buf m.total;
  add_idx buf m.packet.Packet.block;
  add_idx buf m.packet.Packet.index_in_block;
  Buffer.add_bytes buf m.packet.Packet.payload

(* A REKEY body; [payload r] reads its packet payload, the rest of the
   body. *)
let read_rekey_with r payload =
  let rekey_no = u31 r in
  let org = u8 r in
  let epoch = u31 r in
  let root = varint r in
  let seq = idx r in
  let total = idx r in
  let block = idx r in
  let index_in_block = idx r in
  if total = 0 then corrupt "REKEY with zero packets";
  if seq >= total then corrupt "REKEY seq %d out of range (total %d)" seq total;
  let payload = payload r in
  { rekey_no; org; epoch; root; seq; total; packet = { Packet.seq; block; index_in_block; payload } }

let encode_body buf = function
  | Join { cls; loss } ->
      add_u8 buf (match cls with `Short -> 0 | `Long -> 1);
      add_f64 buf loss
  | Resync { member; rekey_no; epoch; root; path; ticket } ->
      add_u31 buf member;
      add_u31 buf rekey_no;
      add_u31 buf epoch;
      add_varint buf root;
      add_path buf path;
      Buffer.add_bytes buf ticket
  | Rekey m -> add_rekey buf m
  | Nack { rekey_no; seqs } ->
      add_u31 buf rekey_no;
      add_vlist buf add_idx seqs
  | Resync_req { member; epoch; auth } ->
      add_u31 buf member;
      add_u31 buf epoch;
      Buffer.add_bytes buf auth
  | Leave { member } -> add_u31 buf member
  | Ping { token } -> add_i64 buf token
  | Pong { token } -> add_i64 buf token
  | Error_msg { code; detail } ->
      add_u8 buf code;
      Buffer.add_string buf detail
  | Sealed { epoch; seq; ct } ->
      add_u31 buf epoch;
      add_seq64 buf seq;
      Buffer.add_bytes buf ct
  | Rejoin { have_epoch; have_state; ticket } ->
      add_u31 buf have_epoch;
      add_u8 buf (if have_state then 1 else 0);
      Buffer.add_bytes buf ticket
  | Rejoin_ack { member; ct } ->
      add_u31 buf member;
      Buffer.add_bytes buf ct

let read_body ~tag r =
  match tag with
  | 3 ->
      let cls = match u8 r with 0 -> `Short | 1 -> `Long | c -> corrupt "JOIN with unknown class %d" c in
      let loss = f64 r in
      if not (Float.is_finite loss) || loss < 0.0 || loss > 1.0 then
        corrupt "JOIN with loss rate outside [0, 1]";
      Join { cls; loss }
  | 9 ->
      let member = u31 r in
      let rekey_no = u31 r in
      let epoch = u31 r in
      let root = varint r in
      let path = read_path r in
      let ticket = rest r in
      Resync { member; rekey_no; epoch; root; path; ticket }
  | 5 -> Rekey (read_rekey_with r rest)
  | 6 ->
      let rekey_no = u31 r in
      let seqs = vlist r ~min_item_size:1 idx in
      Nack { rekey_no; seqs }
  | 8 ->
      let member = u31 r in
      let epoch = u31 r in
      let auth = rest r in
      Resync_req { member; epoch; auth }
  | 10 -> Leave { member = u31 r }
  | 11 -> Ping { token = i64 r }
  | 12 -> Pong { token = i64 r }
  | 13 ->
      let code = u8 r in
      let detail = Bytes.to_string (rest r) in
      Error_msg { code; detail }
  | 14 ->
      let epoch = u31 r in
      let seq = seq64 r in
      let ct = rest r in
      Sealed { epoch; seq; ct }
  | 16 ->
      let have_epoch = u31 r in
      let have_state = match u8 r with 0 -> false | 1 -> true | b -> corrupt "REJOIN with bad have_state %d" b in
      let ticket = rest r in
      Rejoin { have_epoch; have_state; ticket }
  | 17 ->
      let member = u31 r in
      let ct = rest r in
      Rejoin_ack { member; ct }
  | n -> corrupt "unknown message type %d" n

let decode_body ~tag body = parse body (read_body ~tag)

let pp_kind fmt m = Format.pp_print_string fmt (tag_name (tag m))

(* Inner encoding of a SEALED record's plaintext: u8 tag || body — the
   same body codecs as the outer frames, minus the frame header (the
   record layer's seq + tag supply framing and integrity). *)
let encode_inner msg =
  let buf = Buffer.create 64 in
  add_u8 buf (tag msg);
  encode_body buf msg;
  Buffer.to_bytes buf

let decode_inner pt = parse pt (fun r -> read_body ~tag:(u8 r) r)

let decode_inner_head o =
  Gkm_crypto.Aead.parse o ~off:0 (fun r ->
      match u8 r with
      | 5 ->
          let m = read_rekey_with r (fun _ -> Bytes.empty) in
          let off = pos r in
          skip r (remaining r);
          (Rekey m, off)
      | tag ->
          let m = read_body ~tag r in
          (m, pos r))

(* The REJOIN_ACK ciphertext's plaintext: the rejoiner's catch-up
   state. [full] distinguishes a complete entitled path (client lost
   its member state) from a delta of just the path keys that changed
   since the client's last-known epoch. *)
type resume = {
  full : bool;
  rekey_no : int;
  epoch : int;
  root : int;
  path : path;
  ticket : bytes;
}

let encode_resume rs =
  let buf = Buffer.create 128 in
  add_u8 buf (if rs.full then 1 else 0);
  add_u31 buf rs.rekey_no;
  add_u31 buf rs.epoch;
  add_varint buf rs.root;
  add_path buf rs.path;
  Buffer.add_bytes buf rs.ticket;
  Buffer.to_bytes buf

let decode_resume b =
  parse b (fun r ->
      let full =
        match u8 r with 0 -> false | 1 -> true | v -> corrupt "resume with bad full flag %d" v
      in
      let rekey_no = u31 r in
      let epoch = u31 r in
      let root = varint r in
      let path = read_path r in
      let ticket = rest r in
      { full; rekey_no; epoch; root; path; ticket })
