module Rekey_msg = Gkm_lkh.Rekey_msg
module Reed_solomon = Gkm_fec.Reed_solomon
module Codec = Gkm_crypto.Codec
module Key = Gkm_crypto.Key

type t = { seq : int; block : int; index_in_block : int; payload : bytes }

(* An entry is zigzag varints for target, version, level, wrapped and
   receivers, then an unsigned varint ciphertext length and the
   ciphertext. A payload is an unsigned varint entry count followed by
   exactly that many entries, no padding: the capacity bounds a
   payload, it does not size it. Varints keep the small ids of one
   tree short and still carry composed organizations' 2e9-stride band
   ids, so one layout serves every organization. *)

let entry_size_of (e : Rekey_msg.entry) =
  let open Codec in
  let ct = Bytes.length e.ciphertext in
  varint_size e.target_node + varint_size e.target_version + varint_size e.level
  + varint_size e.wrapped_under + varint_size e.receivers + uvarint_size ct + ct

(* Five 1-byte varints and an empty ciphertext's 1-byte length. *)
let min_entry_size = 6
let min_capacity_bytes =
  let open Codec in
  uvarint_size 1 + (5 * varint_size min_int) + uvarint_size Key.wrapped_size + Key.wrapped_size

let add_entry buf (e : Rekey_msg.entry) =
  let open Codec in
  add_varint buf e.target_node;
  add_varint buf e.target_version;
  add_varint buf e.level;
  add_varint buf e.wrapped_under;
  add_varint buf e.receivers;
  add_uvarint buf (Bytes.length e.ciphertext);
  Buffer.add_bytes buf e.ciphertext

let encode_payload entries =
  let buf = Buffer.create 1024 in
  Codec.add_uvarint buf (List.length entries);
  List.iter (add_entry buf) entries;
  Buffer.to_bytes buf

let encode_entries ?wide:_ ~capacity_bytes entries =
  let biggest = List.fold_left (fun acc e -> max acc (entry_size_of e)) 0 entries in
  if capacity_bytes < Codec.uvarint_size 1 + biggest then
    invalid_arg
      (Printf.sprintf "Packet.encode_entries: capacity %dB below largest entry (%dB)"
         capacity_bytes (Codec.uvarint_size 1 + biggest));
  let packets = ref [] and seq = ref 0 in
  (* [used] is the batch's entry bytes; its count varint comes on top *)
  let batch = ref [] and count = ref 0 and used = ref 0 in
  let flush () =
    if !count > 0 then begin
      let payload = encode_payload (List.rev !batch) in
      packets := { seq = !seq; block = 0; index_in_block = 0; payload } :: !packets;
      incr seq;
      batch := [];
      count := 0;
      used := 0
    end
  in
  List.iter
    (fun e ->
      let sz = entry_size_of e in
      if Codec.uvarint_size (!count + 1) + !used + sz > capacity_bytes then flush ();
      batch := e :: !batch;
      incr count;
      used := !used + sz)
    entries;
  flush ();
  List.rev !packets

let read_entry r =
  let open Codec in
  let target_node = varint r in
  let target_version = varint r in
  let level = varint r in
  let wrapped_under = varint r in
  let receivers = varint r in
  let ciphertext = bytes r (uvarint r) in
  { Rekey_msg.target_node; target_version; level; wrapped_under; receivers; ciphertext }

let decode_payload payload =
  let open Codec in
  parse payload @@ fun r ->
  let entries = items r ~min_item_size:min_entry_size (uvarint r) read_entry in
  (* The one decoder that tolerates trailing bytes: FEC recovery
     zero-extends a payload to its block's longest shard. *)
  ignore (bytes r (remaining r));
  entries

let blocks_of_packets ~block_size packets =
  if block_size < 1 then invalid_arg "Packet.blocks_of_packets: block_size must be >= 1";
  let rec cut acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | p :: rest ->
        if n = block_size then cut (List.rev current :: acc) [ p ] 1 rest
        else cut acc (p :: current) (n + 1) rest
  in
  let blocks = cut [] [] 0 packets in
  List.mapi
    (fun b block ->
      List.mapi (fun i p -> { p with block = b; index_in_block = i }) block)
    blocks

(* Reed-Solomon needs equal-length shards; payloads are exact-length,
   so FEC zero-extends them to the block's longest. Trailing zeros are
   harmless: [decode_payload] reads only the entries its count names. *)
let extend len b =
  if Bytes.length b = len then b
  else begin
    let out = Bytes.make len '\000' in
    Bytes.blit b 0 out 0 (Bytes.length b);
    out
  end

let longest = List.fold_left (fun acc b -> max acc (Bytes.length b)) 0

let parity_shards block ~nparity =
  match block with
  | [] -> []
  | _ ->
      let payloads = List.map (fun p -> p.payload) block in
      let len = longest payloads in
      let data = Array.of_list (List.map (extend len) payloads) in
      let code = Reed_solomon.create ~k:(Array.length data) in
      Array.to_list (Reed_solomon.encode code ~data ~nparity)

let recover_block ~k ~data ~parity =
  let code = Reed_solomon.create ~k in
  let len = longest (List.map snd data @ List.map snd parity) in
  let shards =
    List.map (fun (i, payload) -> (i, extend len payload)) data
    @ List.map (fun (j, shard) -> (k + j, extend len shard)) parity
  in
  match Reed_solomon.decode code ~shards with
  | Some recovered ->
      (* received payloads come back verbatim, recovered ones extended *)
      Ok
        (Array.to_list
           (Array.mapi (fun i r -> Option.value ~default:r (List.assoc_opt i data)) recovered))
  | None -> Error "not enough shards to recover the block"
