module Rekey_msg = Gkm_lkh.Rekey_msg
module Reed_solomon = Gkm_fec.Reed_solomon
module Codec = Gkm_crypto.Codec

type t = { seq : int; block : int; index_in_block : int; payload : bytes }

(* Narrow per-entry layout: i32 target, i32 version, u16 level,
   i32 wrapped, i32 receivers, u16 ct_len, ct. A payload is a u16
   entry count followed by exactly that many entries, no padding: the
   capacity bounds a payload, it does not size it. Every organization
   whose ids fit i32 uses it: a 32-byte wrap costs 52 bytes here
   against 60 wide, so a 1 KiB packet holds 19 entries instead of 16.

   Wide layout carries i64 node ids — composed organizations
   allocate ids at 2e9-per-band strides, beyond i32. A wide payload
   announces itself with the sentinel count 0xFFFF (unreachable as a
   real narrow count: 65535 entries need > 1.3 MB of payload, above
   the frame bound) followed by u8 codec version and the real u16
   count; entries are i64 target, i32 version, u16 level, i64 wrapped,
   i32 receivers, u16 ct_len, ct. *)

let entry_fixed = 20
let entry_fixed_wide = 28
let wide_sentinel = 0xFFFF
let wide_version = 2
let header_size ~wide = if wide then 5 else 2
let entry_size_of ~wide (e : Rekey_msg.entry) =
  (if wide then entry_fixed_wide else entry_fixed) + Bytes.length e.ciphertext

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let add_entry ~wide buf (e : Rekey_msg.entry) =
  let open Codec in
  let node v = if wide then add_i64 buf (Int64.of_int v) else add_i32 buf v in
  node e.target_node;
  add_i32 buf e.target_version;
  add_u16 buf e.level;
  node e.wrapped_under;
  add_i32 buf e.receivers;
  add_var16 buf e.ciphertext

let encode_entries ?(wide = false) ~capacity_bytes entries =
  let hdr = header_size ~wide in
  let biggest = List.fold_left (fun acc e -> max acc (entry_size_of ~wide e)) 0 entries in
  if capacity_bytes < hdr + biggest then
    invalid_arg
      (Printf.sprintf "Packet.encode_entries: capacity %dB below largest entry (%dB)"
         capacity_bytes (hdr + biggest));
  if not wide then
    List.iter
      (fun (e : Rekey_msg.entry) ->
        if not (fits_i32 e.target_node && fits_i32 e.wrapped_under) then
          invalid_arg
            (Printf.sprintf "Packet.encode_entries: node id %d needs the wide codec"
               (if fits_i32 e.target_node then e.wrapped_under else e.target_node)))
      entries;
  let packets = ref [] and seq = ref 0 in
  let batch = ref [] and used = ref hdr in
  let flush () =
    match !batch with
    | [] -> ()
    | pending ->
        let buf = Buffer.create !used in
        if wide then begin
          Codec.add_u16 buf wide_sentinel;
          Codec.add_u8 buf wide_version
        end;
        Codec.add_list16 buf (add_entry ~wide) (List.rev pending);
        let payload = Buffer.to_bytes buf in
        packets := { seq = !seq; block = 0; index_in_block = 0; payload } :: !packets;
        incr seq;
        batch := [];
        used := hdr
  in
  List.iter
    (fun e ->
      let sz = entry_size_of ~wide e in
      if !used + sz > capacity_bytes then flush ();
      batch := e :: !batch;
      used := !used + sz)
    entries;
  flush ();
  List.rev !packets

let read_entry ~wide r =
  let open Codec in
  let node r = if wide then Int64.to_int (i64 r) else i32 r in
  let target_node = node r in
  let target_version = i32 r in
  let level = u16 r in
  let wrapped_under = node r in
  let receivers = i32 r in
  let ciphertext = var16 r in
  { Rekey_msg.target_node; target_version; level; wrapped_under; receivers; ciphertext }

let decode_payload payload =
  let open Codec in
  parse payload @@ fun r ->
  let count = u16 r in
  let wide = count = wide_sentinel in
  let count =
    if not wide then count
    else begin
      let v = u8 r in
      if v <> wide_version then corrupt "unknown wide codec version %d" v;
      u16 r
    end
  in
  let min_item_size = if wide then entry_fixed_wide else entry_fixed in
  let entries = items r ~min_item_size count (read_entry ~wide) in
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
