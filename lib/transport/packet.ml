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

(* Two one-byte deltas, the count/kind byte and one entry's one-byte
   delta; then the check and that entry's block. *)
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
         ignore
           (List.fold_left
              (fun prev (e : Rekey_msg.entry) ->
                add_varint buf (e.wrapped_under - prev);
                e.wrapped_under)
              h.target_node es);
         (h.target_node, h.target_version))
       (0, 0) groups);
  List.iter
    (fun ((h : Rekey_msg.entry), es) ->
      Buffer.add_subbytes buf h.ciphertext Key.size Key.check_size;
      List.iter (fun (e : Rekey_msg.entry) -> Buffer.add_subbytes buf e.ciphertext 0 Key.size) es)
    groups;
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

(* One group's metadata: its target, version and the node each of its
   entries is wrapped under. *)
type group = { target : int; version : int; unders : int array }

(* Canonical only: a group must hold an entry and differ from its
   predecessor, so [encode_payload] of what this accepts restores the
   bytes it read. [material] counts the key-material bytes the groups
   read so far announce, all of which follow the metadata. *)
let read_group r prev material =
  let open Codec in
  let pt, pv = !prev in
  let target = pt + varint r in
  let version = pv + varint r in
  let header = uvarint r in
  let count = header lsr 2 and kind = header land 3 in
  if count = 0 then corrupt "empty entry group";
  if kind <> 0 then corrupt "entry kind %d" kind;
  (* each entry takes a delta byte and a block, the group a check *)
  if count > (remaining r - !material - Key.check_size) / (1 + Key.size) then
    corrupt "a group of %d entries cannot fit in %d remaining bytes" count (remaining r);
  material := !material + Key.check_size + (count * Key.size);
  prev := (target, version);
  let last = ref target in
  let unders =
    Array.init count (fun _ ->
        last := !last + varint r;
        !last)
  in
  { target; version; unders }

let read_payload r ~select f =
  let open Codec in
  let prev = ref (0, 0) and material = ref 0 in
  let groups =
    Array.of_list (items r ~min_item_size:min_group_size (uvarint r) (fun r -> read_group r prev material))
  in
  if remaining r < !material then
    corrupt "%d bytes of key material announced, %d remain" !material (remaining r);
  (* [checks.(g)]: the offset of group [g]'s check, its blocks after
     it. Only a group with its predecessor's target and version needs
     both checks read before any entry is selected. *)
  let checks = Array.make (Array.length groups) (pos r) in
  for g = 1 to Array.length groups - 1 do
    let p = groups.(g - 1) in
    checks.(g) <- checks.(g - 1) + Key.check_size + (Array.length p.unders * Key.size);
    if
      groups.(g).target = p.target
      && groups.(g).version = p.version
      && Bytes.equal
           (bytes_at r checks.(g - 1) Key.check_size)
           (bytes_at r checks.(g) Key.check_size)
    then corrupt "entry group repeats its predecessor"
  done;
  Array.iteri
    (fun g { target; version; unders } ->
      Array.iteri
        (fun j under ->
          if select ~target ~version ~under then begin
            (* block || check, built in place: one allocation per entry *)
            let ciphertext = Bytes.create Key.wrapped_size in
            blit_at r (checks.(g) + Key.check_size + (j * Key.size)) ciphertext 0 Key.size;
            blit_at r checks.(g) ciphertext Key.size Key.check_size;
            f
              {
                Rekey_msg.target_node = target;
                target_version = version;
                level = 0;
                wrapped_under = under;
                receivers = 0;
                ciphertext;
              }
          end)
        unders)
    groups;
  (* The one decoder that tolerates trailing bytes: FEC recovery
     zero-extends a payload to its block's longest shard. *)
  skip r (remaining r)

let decode_payload payload =
  Codec.parse payload @@ fun r ->
  let entries = ref [] in
  read_payload r ~select:(fun ~target:_ ~version:_ ~under:_ -> true) (fun e ->
      entries := e :: !entries);
  List.rev !entries

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
