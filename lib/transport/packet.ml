module Rekey_msg = Gkm_lkh.Rekey_msg
module Reed_solomon = Gkm_fec.Reed_solomon
module Codec = Gkm_crypto.Codec
module Key = Gkm_crypto.Key

type t = { seq : int; block : int; index_in_block : int; payload : bytes }

(* The layout is {!encode_payload}'s in the interface. Deltas restart
   in every payload so that a packet decodes alone, and there is no
   padding: the capacity bounds a payload, it does not size it. *)

(* A group header's low two bits are the entry kind, and 0, a
   classical wrap, is the only kind. A group carries its entries'
   shared key check once, so each of its entries is one encrypted
   block. *)
let check_wrap (e : Rekey_msg.entry) =
  let n = Bytes.length e.ciphertext in
  if n <> Key.wrapped_size then
    invalid_arg (Printf.sprintf "Packet: a %d-byte ciphertext is no classical wrap" n)

(* Whether [e] may share a group with [h]: the same target, version
   and check (a classical wrap's last 16 bytes). *)
let same_group (h : Rekey_msg.entry) (e : Rekey_msg.entry) =
  let word b i : int64 = Bytes.get_int64_ne b (Key.size + i) in
  h.target_node = e.target_node
  && h.target_version = e.target_version
  && word h.ciphertext 0 = word e.ciphertext 0
  && word h.ciphertext 8 = word e.ciphertext 8

(* The group count, then one group of one classical wrap with every
   delta at its widest: the header, the check and the block. *)
let min_capacity_bytes =
  let open Codec in
  uvarint_size 1 + (3 * varint_size min_int) + uvarint_size 4 + Key.check_size + Key.size

(* Two one-byte deltas, the count/kind byte, the check, and one
   entry: a one-byte delta and a block. *)
let min_group_size = 3 + Key.check_size + 1 + Key.size

(* Maximal runs of one group, each [(first entry, entries)]. *)
let groups_of entries =
  List.fold_left
    (fun acc e ->
      check_wrap e;
      match acc with
      | (h, es) :: rest when same_group h e -> (h, e :: es) :: rest
      | _ -> (e, [ e ]) :: acc)
    [] entries
  |> List.rev_map (fun (h, es) -> (h, List.rev es))

let encode_payload entries =
  let open Codec in
  let groups = groups_of entries in
  let buf = Buffer.create 1024 in
  add_uvarint buf (List.length groups);
  ignore
    (List.fold_left
       (fun (target, version) ((h : Rekey_msg.entry), es) ->
         add_varint buf (h.target_node - target);
         add_varint buf (h.target_version - version);
         add_uvarint buf (List.length es * 4);
         Buffer.add_subbytes buf h.ciphertext Key.size Key.check_size;
         ignore
           (List.fold_left
              (fun prev (e : Rekey_msg.entry) ->
                add_varint buf (e.wrapped_under - prev);
                Buffer.add_subbytes buf e.ciphertext 0 Key.size;
                e.wrapped_under)
              h.target_node es);
         (h.target_node, h.target_version))
       (0, 0) groups);
  Buffer.to_bytes buf

(* The bytes [e] adds to a payload of [groups] groups whose entries,
   newest first, are [batch] and whose last group holds [count]; and
   whether [e] joins that group. *)
let growth ~groups ~count batch (e : Rekey_msg.entry) =
  let open Codec in
  match batch with
  | (last : Rekey_msg.entry) :: _ when same_group last e ->
      ( varint_size (e.wrapped_under - last.wrapped_under)
        + Key.size
        + uvarint_size ((count + 1) * 4)
        - uvarint_size (count * 4),
        true )
  | _ ->
      let target, version =
        match batch with last :: _ -> (last.target_node, last.target_version) | [] -> (0, 0)
      in
      ( uvarint_size (groups + 1) - uvarint_size groups
        + varint_size (e.target_node - target)
        + varint_size (e.target_version - version)
        + uvarint_size 4
        + Key.check_size
        + varint_size (e.wrapped_under - e.target_node)
        + Key.size,
        false )

let encode_entries ?wide:_ ~capacity_bytes entries =
  let packets = ref [] and seq = ref 0 in
  (* the open packet: entries newest first, exact size, group count
     and the last group's length *)
  let batch = ref [] and size = ref 0 and groups = ref 0 and count = ref 0 in
  let reset () =
    batch := [];
    size := Codec.uvarint_size 0;
    groups := 0;
    count := 0
  in
  let flush () =
    if !batch <> [] then begin
      let payload = encode_payload (List.rev !batch) in
      packets := { seq = !seq; block = 0; index_in_block = 0; payload } :: !packets;
      incr seq;
      reset ()
    end
  in
  reset ();
  List.iter
    (fun (e : Rekey_msg.entry) ->
      check_wrap e;
      let grow () = growth ~groups:!groups ~count:!count !batch e in
      let sz, joins =
        match grow () with
        | sz, _ when !size + sz > capacity_bytes && !batch <> [] ->
            flush ();
            grow ()
        | g -> g
      in
      if !size + sz > capacity_bytes then
        invalid_arg
          (Printf.sprintf "Packet.encode_entries: capacity %dB below an entry's %dB"
             capacity_bytes (!size + sz));
      if joins then incr count
      else begin
        incr groups;
        count := 1
      end;
      size := !size + sz;
      batch := e :: !batch)
    entries;
  flush ();
  List.rev !packets

(* Canonical only: a group must hold an entry and differ from its
   predecessor, so [encode_payload] of what this accepts restores the
   bytes it read. *)
let read_group r prev =
  let open Codec in
  let pt, pv, pc = !prev in
  let target_node = pt + varint r in
  let target_version = pv + varint r in
  let header = uvarint r in
  let count = header lsr 2 and kind = header land 3 in
  if count = 0 then corrupt "empty entry group";
  if kind <> 0 then corrupt "entry kind %d" kind;
  let check = bytes r Key.check_size in
  if target_node = pt && target_version = pv && Bytes.equal check pc then
    corrupt "entry group repeats its predecessor";
  prev := (target_node, target_version, check);
  let last = ref target_node in
  items r ~min_item_size:(1 + Key.size) count (fun r ->
      let wrapped_under = !last + varint r in
      last := wrapped_under;
      let ciphertext = Bytes.cat (bytes r Key.size) check in
      { Rekey_msg.target_node; target_version; level = 0; wrapped_under; receivers = 0; ciphertext })

let decode_payload payload =
  let open Codec in
  parse payload @@ fun r ->
  let prev = ref (0, 0, Bytes.empty) in
  let groups = items r ~min_item_size:min_group_size (uvarint r) (fun r -> read_group r prev) in
  (* The one decoder that tolerates trailing bytes: FEC recovery
     zero-extends a payload to its block's longest shard. *)
  ignore (bytes r (remaining r));
  List.concat groups

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
   harmless: [decode_payload] reads only the groups its count names. *)
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
