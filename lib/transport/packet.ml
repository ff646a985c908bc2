module Rekey_msg = Gkm_lkh.Rekey_msg
module Reed_solomon = Gkm_fec.Reed_solomon

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

open Gkm_crypto.Bytes_io

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let write_entry buf pos (e : Rekey_msg.entry) =
  let pos = put_i32 buf pos e.target_node in
  let pos = put_i32 buf pos e.target_version in
  let pos = put_u16 buf pos e.level in
  let pos = put_i32 buf pos e.wrapped_under in
  let pos = put_i32 buf pos e.receivers in
  let pos = put_u16 buf pos (Bytes.length e.ciphertext) in
  Bytes.blit e.ciphertext 0 buf pos (Bytes.length e.ciphertext);
  pos + Bytes.length e.ciphertext

let write_entry_wide buf pos (e : Rekey_msg.entry) =
  let pos = put_i64 buf pos (Int64.of_int e.target_node) in
  let pos = put_i32 buf pos e.target_version in
  let pos = put_u16 buf pos e.level in
  let pos = put_i64 buf pos (Int64.of_int e.wrapped_under) in
  let pos = put_i32 buf pos e.receivers in
  let pos = put_u16 buf pos (Bytes.length e.ciphertext) in
  Bytes.blit e.ciphertext 0 buf pos (Bytes.length e.ciphertext);
  pos + Bytes.length e.ciphertext

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
        let payload = Bytes.create !used in
        let pos =
          if wide then begin
            let p = put_u16 payload 0 wide_sentinel in
            let p = put_u8 payload p wide_version in
            put_u16 payload p (List.length pending)
          end
          else put_u16 payload 0 (List.length pending)
        in
        let write = if wide then write_entry_wide else write_entry in
        ignore (List.fold_left (fun pos e -> write payload pos e) pos (List.rev pending));
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

let decode_entries ~wide payload ~pos:start ~count =
  let len = Bytes.length payload in
  let fixed = if wide then entry_fixed_wide else entry_fixed in
  let rec go pos remaining acc =
    if remaining = 0 then Ok (List.rev acc)
    else if pos + fixed > len then Error "truncated entry header"
    else begin
      let target_node, target_version, level, wrapped_under, receivers, ct_len =
        if wide then
          ( Int64.to_int (get_i64 payload pos),
            get_i32 payload (pos + 8),
            get_u16 payload (pos + 12),
            Int64.to_int (get_i64 payload (pos + 14)),
            get_i32 payload (pos + 22),
            get_u16 payload (pos + 26) )
        else
          ( get_i32 payload pos,
            get_i32 payload (pos + 4),
            get_u16 payload (pos + 8),
            get_i32 payload (pos + 10),
            get_i32 payload (pos + 14),
            get_u16 payload (pos + 18) )
      in
      let pos = pos + fixed in
      if pos + ct_len > len then Error "truncated ciphertext"
      else begin
        let entry =
          {
            Rekey_msg.target_node;
            target_version;
            level;
            wrapped_under;
            receivers;
            ciphertext = Bytes.sub payload pos ct_len;
          }
        in
        go (pos + ct_len) (remaining - 1) (entry :: acc)
      end
    end
  in
  go start count []

let decode_payload payload =
  let len = Bytes.length payload in
  if len < 2 then Error "payload shorter than its header"
  else begin
    let count = get_u16 payload 0 in
    if count = wide_sentinel then begin
      if len < 5 then Error "truncated wide header"
      else if get_u8 payload 2 <> wide_version then
        Error (Printf.sprintf "unknown wide codec version %d" (get_u8 payload 2))
      else decode_entries ~wide:true payload ~pos:5 ~count:(get_u16 payload 3)
    end
    else decode_entries ~wide:false payload ~pos:2 ~count
  end

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
