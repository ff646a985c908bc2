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
  | Hello of { lo : int; hi : int }
  | Hello_ack of { version : int; tp_ms : int; max_frame : int; capacity : int }
  | Join of { cls : cls; loss : float }
  | Join_ack of { member : int; rekey_no : int; epoch : int; root : int; path : path }
  | Rekey of rekey
  | Nack of { rekey_no : int; seqs : int list }
  | Retx of rekey
  | Resync_req of { member : int; epoch : int; auth : bytes }
  | Resync of { member : int; rekey_no : int; epoch : int; root : int; path : path }
  | Leave of { member : int }
  | Ping of { token : int64 }
  | Pong of { token : int64 }
  | Error_msg of { code : int; detail : string }
  | Sealed of { epoch : int; seq : int64; ct : bytes }
  | Ticket of { member : int; issued_epoch : int; ticket : bytes }
  | Rejoin of { have_epoch : int; have_state : bool; ticket : bytes }
  | Rejoin_ack of { member : int; ct : bytes }

(* ERROR codes *)
let err_version = 1
let err_protocol = 2
let err_evicted = 3
let err_auth = 4
let err_unsupported = 5
let err_ticket = 6

let tag = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Join _ -> 3
  | Join_ack _ -> 4
  | Rekey _ -> 5
  | Nack _ -> 6
  | Retx _ -> 7
  | Resync_req _ -> 8
  | Resync _ -> 9
  | Leave _ -> 10
  | Ping _ -> 11
  | Pong _ -> 12
  | Error_msg _ -> 13
  | Sealed _ -> 14
  | Ticket _ -> 15
  | Rejoin _ -> 16
  | Rejoin_ack _ -> 17

let tag_name = function
  | 1 -> "HELLO"
  | 2 -> "HELLO_ACK"
  | 3 -> "JOIN"
  | 4 -> "JOIN_ACK"
  | 5 -> "REKEY"
  | 6 -> "NACK"
  | 7 -> "RETX"
  | 8 -> "RESYNC_REQ"
  | 9 -> "RESYNC"
  | 10 -> "LEAVE"
  | 11 -> "PING"
  | 12 -> "PONG"
  | 13 -> "ERROR"
  | 14 -> "SEALED"
  | 15 -> "TICKET"
  | 16 -> "REJOIN"
  | 17 -> "REJOIN_ACK"
  | n -> Printf.sprintf "type-%d" n

(* Paths are (node id, raw key) pairs: the wire equivalent of the
   catch-up unicast ([Organization.member_path]). Node ids are i64 —
   composed organizations allocate ids beyond 2^31. *)
let add_path buf path = add_list16 buf (fun buf (node, k) ->
    add_i64 buf (Int64.of_int node);
    add_key buf k)
    path

(* Node ids live in native ints everywhere above the codec. An i64
   outside the 63-bit int range would silently alias through
   [Int64.to_int] — the re-encoded frame would differ from what was
   decoded — so the decoder rejects it instead: no honest encoder can
   produce one. *)
let node_of_i64 v =
  let n = Int64.to_int v in
  if Int64.of_int n <> v then corrupt "node id %Ld outside the native int range" v;
  n

let read_path r =
  list16 r ~min_item_size:(8 + Key.size) (fun r ->
      let node = node_of_i64 (i64 r) in
      let k = key r in
      (node, k))

let add_rekey buf m =
  add_i32 buf m.rekey_no;
  add_u8 buf m.org;
  add_i32 buf m.epoch;
  add_i64 buf (Int64.of_int m.root);
  add_u16 buf m.seq;
  add_u16 buf m.total;
  add_u16 buf m.packet.Packet.block;
  add_u16 buf m.packet.Packet.index_in_block;
  add_var32 buf m.packet.Packet.payload

let read_rekey r =
  let rekey_no = i32 r in
  let org = u8 r in
  let epoch = i32 r in
  let root = node_of_i64 (i64 r) in
  let seq = u16 r in
  let total = u16 r in
  let block = u16 r in
  let index_in_block = u16 r in
  let payload = var32 r in
  if total = 0 then corrupt "REKEY with zero packets";
  if seq >= total then corrupt "REKEY seq %d out of range (total %d)" seq total;
  { rekey_no; org; epoch; root; seq; total; packet = { Packet.seq; block; index_in_block; payload } }

let encode_body buf = function
  | Hello { lo; hi } ->
      add_u8 buf lo;
      add_u8 buf hi
  | Hello_ack { version; tp_ms; max_frame; capacity } ->
      add_u8 buf version;
      add_i32 buf tp_ms;
      add_i32 buf max_frame;
      add_i32 buf capacity
  | Join { cls; loss } ->
      add_u8 buf (match cls with `Short -> 0 | `Long -> 1);
      add_f64 buf loss
  | Join_ack { member; rekey_no; epoch; root; path } ->
      add_i32 buf member;
      add_i32 buf rekey_no;
      add_i32 buf epoch;
      add_i64 buf (Int64.of_int root);
      add_path buf path
  | Rekey m | Retx m -> add_rekey buf m
  | Nack { rekey_no; seqs } ->
      add_i32 buf rekey_no;
      add_list16 buf add_u16 seqs
  | Resync_req { member; epoch; auth } ->
      add_i32 buf member;
      add_i32 buf epoch;
      add_var16 buf auth
  | Resync { member; rekey_no; epoch; root; path } ->
      add_i32 buf member;
      add_i32 buf rekey_no;
      add_i32 buf epoch;
      add_i64 buf (Int64.of_int root);
      add_path buf path
  | Leave { member } -> add_i32 buf member
  | Ping { token } -> add_i64 buf token
  | Pong { token } -> add_i64 buf token
  | Error_msg { code; detail } ->
      add_u8 buf code;
      add_string16 buf detail
  | Sealed { epoch; seq; ct } ->
      add_i32 buf epoch;
      add_i64 buf seq;
      add_var32 buf ct
  | Ticket { member; issued_epoch; ticket } ->
      add_i32 buf member;
      add_i32 buf issued_epoch;
      add_var16 buf ticket
  | Rejoin { have_epoch; have_state; ticket } ->
      add_i32 buf have_epoch;
      add_u8 buf (if have_state then 1 else 0);
      add_var16 buf ticket
  | Rejoin_ack { member; ct } ->
      add_i32 buf member;
      add_var32 buf ct

let read_body ~tag r =
  match tag with
  | 1 ->
      let lo = u8 r in
      let hi = u8 r in
      if lo > hi then corrupt "HELLO with empty version range [%d, %d]" lo hi;
      Hello { lo; hi }
  | 2 ->
      let version = u8 r in
      let tp_ms = i32 r in
      let max_frame = i32 r in
      let capacity = i32 r in
      Hello_ack { version; tp_ms; max_frame; capacity }
  | 3 ->
      let cls = match u8 r with 0 -> `Short | 1 -> `Long | c -> corrupt "JOIN with unknown class %d" c in
      let loss = f64 r in
      if not (Float.is_finite loss) || loss < 0.0 || loss > 1.0 then
        corrupt "JOIN with loss rate outside [0, 1]";
      Join { cls; loss }
  | 4 ->
      let member = i32 r in
      let rekey_no = i32 r in
      let epoch = i32 r in
      let root = node_of_i64 (i64 r) in
      let path = read_path r in
      Join_ack { member; rekey_no; epoch; root; path }
  | 5 -> Rekey (read_rekey r)
  | 6 ->
      let rekey_no = i32 r in
      let seqs = list16 r ~min_item_size:2 u16 in
      Nack { rekey_no; seqs }
  | 7 -> Retx (read_rekey r)
  | 8 ->
      let member = i32 r in
      let epoch = i32 r in
      let auth = var16 r in
      Resync_req { member; epoch; auth }
  | 9 ->
      let member = i32 r in
      let rekey_no = i32 r in
      let epoch = i32 r in
      let root = node_of_i64 (i64 r) in
      let path = read_path r in
      Resync { member; rekey_no; epoch; root; path }
  | 10 -> Leave { member = i32 r }
  | 11 -> Ping { token = i64 r }
  | 12 -> Pong { token = i64 r }
  | 13 ->
      let code = u8 r in
      let detail = string16 r in
      Error_msg { code; detail }
  | 14 ->
      let epoch = i32 r in
      let seq = i64 r in
      let ct = var32 r in
      Sealed { epoch; seq; ct }
  | 15 ->
      let member = i32 r in
      let issued_epoch = i32 r in
      let ticket = var16 r in
      Ticket { member; issued_epoch; ticket }
  | 16 ->
      let have_epoch = i32 r in
      let have_state = match u8 r with 0 -> false | 1 -> true | b -> corrupt "REJOIN with bad have_state %d" b in
      let ticket = var16 r in
      Rejoin { have_epoch; have_state; ticket }
  | 17 ->
      let member = i32 r in
      let ct = var32 r in
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
  add_i32 buf rs.rekey_no;
  add_i32 buf rs.epoch;
  add_i64 buf (Int64.of_int rs.root);
  add_path buf rs.path;
  add_var16 buf rs.ticket;
  Buffer.to_bytes buf

let decode_resume b =
  parse b (fun r ->
      let full =
        match u8 r with 0 -> false | 1 -> true | v -> corrupt "resume with bad full flag %d" v
      in
      let rekey_no = i32 r in
      let epoch = i32 r in
      let root = node_of_i64 (i64 r) in
      let path = read_path r in
      let ticket = var16 r in
      { full; rekey_no; epoch; root; path; ticket })
