module Prng = Gkm_crypto.Prng
module Key = Gkm_crypto.Key
module Rekey_msg = Gkm_lkh.Rekey_msg
module Scheme = Gkm.Scheme
module Organization = Gkm.Organization
open Gkm_transport

let range a b = List.init (b - a + 1) (fun i -> a + i)

(* The one-keytree LKH server: one balanced tree whose root is the DEK. *)
let one_keytree ~seed () = Scheme.create { (Scheme.default_config Scheme.One_keytree) with seed }

let register server m = Scheme.register server ~member:m ~cls:Scheme.Long

let sample_entries ?(n = 30) ?(departs = [ 3; 17 ]) () =
  let server = one_keytree ~seed:5 () in
  List.iter (fun m -> ignore (register server m)) (range 0 (n - 1));
  ignore (Scheme.rekey server);
  List.iter (Scheme.enqueue_departure server) departs;
  (Option.get (Scheme.rekey server)).Rekey_msg.entries

(* What a member reads off the wire: [level] and [receivers] stay
   with the sender. *)
let wire_view (e : Rekey_msg.entry) = (e.target_node, e.target_version, e.wrapped_under, e.ciphertext)

let entries_equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> wire_view x = wire_view y) a b

let capacity = 256

(* The layout, restated independently of the codec: LEB128 groups of
   7 bits over the 63-bit pattern, zigzag for the signed fields
   (modular arithmetic maps min_int to all ones, as it should). *)
let rec leb_width u = if u lsr 7 = 0 then 1 else 1 + leb_width (u lsr 7)
let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1

(* Kind 0, a classical wrap, is the only entry kind. *)
let kind_of (e : Rekey_msg.entry) =
  match Bytes.length e.ciphertext with
  | 32 -> 0
  | n -> Alcotest.failf "no entry kind has a %d-byte ciphertext" n

(* A classical wrap's encrypted block and its key check. *)
let block (e : Rekey_msg.entry) = Bytes.sub e.ciphertext 0 Key.size
let check (e : Rekey_msg.entry) = Bytes.sub e.ciphertext Key.size Key.check_size

(* Maximal runs of consecutive entries sharing target, version, kind
   and, with [hoist], a classical wrap's check. *)
let runs ?(hoist = true) es =
  List.fold_left
    (fun acc (e : Rekey_msg.entry) ->
      match acc with
      | ((h : Rekey_msg.entry) :: _ as run) :: rest
        when h.target_node = e.target_node
             && h.target_version = e.target_version
             && kind_of h = kind_of e
             && not (hoist && kind_of h = 0 && check h <> check e) ->
          (e :: run) :: rest
      | _ -> [ e ] :: acc)
    [] es
  |> List.rev_map List.rev

(* Walk a payload's varints in order, with the bytes between them:
   the group count, then per group the target and version deltas,
   count * 4 + kind and per entry the wrapped delta; then per group
   the key material, the check and each entry's block. Without
   [hoist], the layout before the check was hoisted: groups do not
   split on checks, and every kind-0 entry carries its whole 32 bytes
   right after its wrapped delta. *)
let fold_layout ?(hoist = true) ~varint ~raw init es =
  let rs = runs ~hoist es in
  let acc = varint init (List.length rs) in
  let acc, _ =
    List.fold_left
      (fun (acc, (t, v)) run ->
        let h : Rekey_msg.entry = List.hd run in
        let acc = varint acc (zigzag (h.target_node - t)) in
        let acc = varint acc (zigzag (h.target_version - v)) in
        let acc = varint acc ((List.length run * 4) + kind_of h) in
        let acc, _ =
          List.fold_left
            (fun (acc, prev) (e : Rekey_msg.entry) ->
              let acc = varint acc (zigzag (e.wrapped_under - prev)) in
              ((if hoist then acc else raw acc e.ciphertext), e.wrapped_under))
            (acc, h.target_node) run
        in
        (acc, (h.target_node, h.target_version)))
      (acc, (0, 0)) rs
  in
  if hoist then
    List.fold_left
      (fun acc run -> List.fold_left (fun acc e -> raw acc (block e)) (raw acc (check (List.hd run))) run)
      acc rs
  else acc

let payload_size ?hoist =
  fold_layout ?hoist ~varint:(fun acc u -> acc + leb_width u) ~raw:(fun acc b -> acc + Bytes.length b) 0

(* The layout with two-block classical wraps that this one replaced. *)
let two_block_payload_size = payload_size ~hoist:false

let test_packet_roundtrip () =
  let entries = sample_entries () in
  let packets = Packet.encode_entries ~capacity_bytes:capacity entries in
  Alcotest.(check bool) "multiple packets" true (List.length packets > 1);
  let decoded =
    List.concat_map
      (fun (p : Packet.t) ->
        match Packet.decode_payload p.payload with
        | Ok es ->
            Alcotest.(check int) "exact encoded size" (payload_size es) (Bytes.length p.payload);
            Alcotest.(check bool) "within capacity" true (Bytes.length p.payload <= capacity);
            es
        | Error e -> Alcotest.fail e)
      packets
  in
  Alcotest.(check bool) "all entries recovered in order" true (entries_equal entries decoded)

(* The worst single entry: every delta a 9-byte varint (min_int from
   0, max_int from 0, 0 from min_int), a 32-byte wrap. *)
let worst_entry =
  {
    Rekey_msg.target_node = min_int;
    target_version = max_int;
    level = 0;
    wrapped_under = 0;
    receivers = 0;
    ciphertext = Bytes.make Key.wrapped_size 'w';
  }

let test_packet_capacity_too_small () =
  let entries = sample_entries () in
  (match Packet.encode_entries ~capacity_bytes:10 entries with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny capacity accepted");
  let floor = Packet.min_capacity_bytes in
  Alcotest.(check int) "the floor" 61 floor;
  Alcotest.(check int) "the worst entry fills it" floor (payload_size [ worst_entry ]);
  let packets = Packet.encode_entries ~capacity_bytes:floor [ worst_entry; worst_entry ] in
  Alcotest.(check (list int)) "one per packet at the floor" [ floor; floor ]
    (List.map (fun (p : Packet.t) -> Bytes.length p.payload) packets);
  match Packet.encode_entries ~capacity_bytes:(floor - 1) [ worst_entry ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "the worst entry packed below the floor"

let test_packet_blocks () =
  let entries = sample_entries () in
  let packets = Packet.encode_entries ~capacity_bytes:256 entries in
  let blocks = Packet.blocks_of_packets ~block_size:4 packets in
  let total = List.fold_left (fun acc b -> acc + List.length b) 0 blocks in
  Alcotest.(check int) "all packets in blocks" (List.length packets) total;
  List.iteri
    (fun bi block ->
      Alcotest.(check bool) "block size bound" true (List.length block <= 4);
      List.iteri
        (fun i (p : Packet.t) ->
          Alcotest.(check int) "block index" bi p.block;
          Alcotest.(check int) "index in block" i p.index_in_block)
        block)
    blocks

let test_packet_fec_recovery () =
  (* Drop data packets; recover them from real Reed-Solomon parity. *)
  let entries = sample_entries () in
  let packets = Packet.encode_entries ~capacity_bytes:256 entries in
  let blocks = Packet.blocks_of_packets ~block_size:4 packets in
  List.iter
    (fun block ->
      let k = List.length block in
      let parity = Packet.parity_shards block ~nparity:2 in
      (* Lose up to 2 data packets of the block. *)
      let kept =
        List.filteri (fun i _ -> i >= min 2 (k - 1) || k = 1) block
        |> List.map (fun (p : Packet.t) -> (p.index_in_block, p.payload))
      in
      let parity_indexed = List.mapi (fun j s -> (j, s)) parity in
      match Packet.recover_block ~k ~data:kept ~parity:parity_indexed with
      | Ok payloads ->
          List.iteri
            (fun i payload ->
              let original = (List.nth block i : Packet.t).payload in
              Alcotest.(check bool)
                (Printf.sprintf "block payload %d recovered" i)
                true (Bytes.equal payload original))
            payloads
      | Error e -> Alcotest.fail e)
    blocks

let test_packet_fec_insufficient () =
  let entries = sample_entries ~n:60 ~departs:[ 3; 17; 41 ] () in
  let packets = Packet.encode_entries ~capacity_bytes:128 entries in
  match Packet.blocks_of_packets ~block_size:4 packets with
  | block :: _ when List.length block >= 3 -> (
      let k = List.length block in
      let parity = Packet.parity_shards block ~nparity:1 in
      (* Keep k - 2 data + 1 parity = k - 1 shards: not enough. *)
      let kept =
        List.filteri (fun i _ -> i >= 2) block
        |> List.map (fun (p : Packet.t) -> (p.index_in_block, p.payload))
      in
      match Packet.recover_block ~k ~data:kept ~parity:(List.mapi (fun j s -> (j, s)) parity) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "recovered from fewer than k shards")
  | _ -> Alcotest.fail "expected a full first block"

(* End to end over a lossy channel with REAL bytes: members reassemble
   entries from whatever data packets and RS parities they receive,
   then decrypt their path keys. *)
let test_packet_lossy_end_to_end () =
  let module Member = Gkm_lkh.Member in
  let module Channel = Gkm_net.Channel in
  let module Loss_model = Gkm_net.Loss_model in
  let n = 24 in
  let server = one_keytree ~seed:9 () in
  let bootstrap = Hashtbl.create n in
  List.iter (fun m -> Hashtbl.replace bootstrap m (register server m)) (range 0 (n - 1));
  let admission = Option.get (Scheme.rekey server) in
  let members = Hashtbl.create n in
  List.iter
    (fun m ->
      let leaf = fst (List.hd (Scheme.member_path server m)) in
      let mem = Member.create ~id:m ~leaf_node:leaf ~individual_key:(Hashtbl.find bootstrap m) in
      ignore (Member.process mem admission);
      Hashtbl.replace members m mem)
    (range 0 (n - 1));
  Scheme.enqueue_departure server 5;
  let msg = Option.get (Scheme.rekey server) in
  (* Serialize into packets + blocks + parity. *)
  let packets = Packet.encode_entries ~capacity_bytes:256 msg.entries in
  let blocks = Packet.blocks_of_packets ~block_size:3 packets in
  let rng = Prng.create 77 in
  let specs = List.map (fun m -> (m, Loss_model.bernoulli 0.3)) (range 0 (n - 1)) in
  let channel = Channel.create ~rng specs in
  (* Per-member reception state: data/parity shards per block. *)
  let received : (int * int, (int * bytes) list * (int * bytes) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let record member block shard =
    let key = (member, block) in
    let data, parity = Option.value ~default:([], []) (Hashtbl.find_opt received key) in
    match shard with
    | `Data (i, payload) -> Hashtbl.replace received key ((i, payload) :: data, parity)
    | `Parity (j, s) -> Hashtbl.replace received key (data, (j, s) :: parity)
  in
  List.iter
    (fun block ->
      let bi = (List.hd block : Packet.t).block in
      List.iter
        (fun (p : Packet.t) ->
          let mask = Array.make (Channel.size channel) false in
          Channel.multicast_into channel mask;
          Array.iteri
            (fun r got ->
              if got then
                record (Channel.receiver channel r).member bi
                  (`Data (p.index_in_block, p.payload)))
            mask)
        block;
      (* Send generous parity so everyone can decode in this test. *)
      let parity = Packet.parity_shards block ~nparity:6 in
      List.iteri
        (fun j shard ->
          let mask = Array.make (Channel.size channel) false in
          Channel.multicast_into channel mask;
          Array.iteri
            (fun r got ->
              if got then record (Channel.receiver channel r).member bi (`Parity (j, shard)))
            mask)
        parity)
    blocks;
  (* Each member decodes what it can and processes the entries. *)
  let n_blocks = List.length blocks in
  let decoded_everything = ref 0 in
  Hashtbl.iter
    (fun id mem ->
      if id <> 5 then begin
        let all = ref true in
        List.iteri
          (fun bi block ->
            let k = List.length block in
            let data, parity =
              Option.value ~default:([], []) (Hashtbl.find_opt received (id, bi))
            in
            match Packet.recover_block ~k ~data ~parity with
            | Ok payloads ->
                List.iter
                  (fun payload ->
                    match Packet.decode_payload payload with
                    | Ok entries ->
                        List.iter (fun e -> ignore (Member.process_entry mem e)) entries
                    | Error _ -> all := false)
                  payloads
            | Error _ -> all := false)
          blocks;
        Member.set_root mem msg.root_node;
        if !all then incr decoded_everything
      end)
    members;
  ignore n_blocks;
  (* With 30% loss and 6 parities per 3-packet block, essentially all
     members decode; everyone who decoded must hold the DEK. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d members decoded all blocks" !decoded_everything (n - 1))
    true
    (!decoded_everything >= n - 3);
  let dek = Option.get (Scheme.group_key server) in
  let holders = ref 0 in
  Hashtbl.iter
    (fun id mem ->
      if id <> 5 then
        match Member.group_key mem with
        | Some k when Key.equal k dek -> incr holders
        | _ -> ())
    members;
  Alcotest.(check bool)
    (Printf.sprintf "%d DEK holders >= decoders" !holders)
    true
    (!holders >= !decoded_everything)

(* Composed organizations put band strides of 10^9 in node ids,
   beyond i32; the varint layout carries them like any other int. *)
let wide_entries =
  List.init 6 (fun i ->
      {
        Rekey_msg.target_node = (3_000_000_000 * (i + 1)) + i;
        target_version = 2;
        level = i;
        wrapped_under = 4_000_000_000 + i;
        receivers = 1 lsl i;
        ciphertext = Bytes.make Key.wrapped_size (Char.chr (97 + i));
      })

let test_packet_wide_roundtrip () =
  let packets = Packet.encode_entries ~wide:true ~capacity_bytes:capacity wide_entries in
  let decoded =
    List.concat_map
      (fun (p : Packet.t) ->
        match Packet.decode_payload p.payload with
        | Ok es -> es
        | Error e -> Alcotest.fail e)
      packets
  in
  Alcotest.(check bool) "i64 ids survive" true (entries_equal wide_entries decoded);
  (* narrow payloads still decode through the same entry point *)
  let entries = sample_entries () in
  let narrow = Packet.encode_entries ~capacity_bytes:capacity entries in
  let decoded =
    List.concat_map
      (fun (p : Packet.t) ->
        match Packet.decode_payload p.payload with
        | Ok es -> es
        | Error e -> Alcotest.fail e)
      narrow
  in
  Alcotest.(check bool) "narrow payloads unaffected" true (entries_equal entries decoded)

let test_packet_big_ids_without_wide () =
  let payloads = List.map (fun (p : Packet.t) -> p.payload) in
  let packets = Packet.encode_entries ~capacity_bytes:capacity wide_entries in
  Alcotest.(check (list bytes))
    "~wide:true changes nothing" (payloads packets)
    (payloads (Packet.encode_entries ~wide:true ~capacity_bytes:capacity wide_entries));
  let decoded =
    List.concat_map
      (fun b -> match Packet.decode_payload b with Ok es -> es | Error e -> Alcotest.fail e)
      (payloads packets)
  in
  Alcotest.(check bool) "ids beyond i32 survive" true (entries_equal wide_entries decoded)

let prop_packet_wide_roundtrip =
  QCheck.Test.make ~name:"wide codec roundtrip across batch shapes" ~count:50
    QCheck.(pair (int_range 2 60) (int_range 128 2048))
    (fun (n, capacity_bytes) ->
      let entries =
        List.map
          (fun (e : Rekey_msg.entry) ->
            { e with target_node = e.target_node + 5_000_000_000 })
          (sample_entries ~n ~departs:[ 0 ] ())
      in
      let packets = Packet.encode_entries ~wide:true ~capacity_bytes entries in
      let decoded =
        List.concat_map
          (fun (p : Packet.t) ->
            match Packet.decode_payload p.payload with Ok es -> es | Error _ -> [])
          packets
      in
      entries_equal entries decoded)

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet roundtrip across batch shapes" ~count:50
    QCheck.(pair (int_range 2 60) (int_range 128 2048))
    (fun (n, capacity_bytes) ->
      let entries = sample_entries ~n ~departs:[ 0 ] () in
      let packets = Packet.encode_entries ~capacity_bytes entries in
      let decoded =
        List.concat_map
          (fun (p : Packet.t) ->
            match Packet.decode_payload p.payload with Ok es -> es | Error _ -> [])
          packets
      in
      entries_equal entries decoded)

(* Payloads are exact-length, so a block's last packet is usually
   short: parity over the zero-extended block must still restore every
   entry, whichever [<= nparity] shards are lost. *)
let prop_packet_fec_short_tail =
  QCheck.Test.make ~name:"FEC restores blocks with a short last packet" ~count:60
    QCheck.(quad bool (int_range 2 60) (int_range 1 4) (pair (int_range 1 3) small_nat))
    (fun (wide, n, block_size, (nparity, drop_seed)) ->
      let entries =
        let es = sample_entries ~n ~departs:[ 0 ] () in
        if wide then
          List.map
            (fun (e : Rekey_msg.entry) -> { e with target_node = e.target_node + 5_000_000_000 })
            es
        else es
      in
      let packets = Packet.encode_entries ~wide ~capacity_bytes:capacity entries in
      let blocks = Packet.blocks_of_packets ~block_size packets in
      QCheck.assume
        (match List.rev packets with
        | last :: _ :: _ -> Bytes.length last.payload < Bytes.length (List.hd packets).payload
        | _ -> false);
      let rng = Random.State.make [| drop_seed |] in
      let decoded =
        List.concat_map
          (fun block ->
            let k = List.length block in
            let parity = List.mapi (fun j s -> (j, s)) (Packet.parity_shards block ~nparity) in
            (* lose up to [nparity] of the block's k + nparity shards *)
            let drops = Random.State.int rng (nparity + 1) in
            let lost = Array.init (k + nparity) (fun i -> i < drops) in
            for i = k + nparity - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let x = lost.(i) in
              lost.(i) <- lost.(j);
              lost.(j) <- x
            done;
            let data =
              List.filter_map
                (fun (p : Packet.t) ->
                  if lost.(p.index_in_block) then None else Some (p.index_in_block, p.payload))
                block
            in
            let parity = List.filter (fun (j, _) -> not lost.(k + j)) parity in
            match Packet.recover_block ~k ~data ~parity with
            | Error e -> QCheck.Test.fail_report e
            | Ok payloads ->
                List.concat_map
                  (fun payload ->
                    match Packet.decode_payload payload with
                    | Ok es -> es
                    | Error e -> QCheck.Test.fail_report e)
                  payloads)
          blocks
      in
      entries_equal entries decoded)

(* The layout over any int: edge values, both signs, values beyond
   2^32 and 2e9-stride band ids. *)
let any_int =
  QCheck.Gen.(
    oneof
      [
        int;
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; 63; -64; 64 ];
        map (fun k -> (1 lsl k) - 1) (int_range 0 62);
        map (fun k -> -(1 lsl k)) (int_range 0 62);
        map (fun v -> (1 lsl 32) + v) (int_bound 1_000_000);
        map2 (fun b v -> (b * 2_000_000_000) + v) (int_bound 8) (int_bound 1000);
      ])

(* A run of 1-4 classical wraps of one target and version, wrapped
   under ids near the target or anywhere; runs that happen to share a
   key with their predecessor merge on the wire, as they should. Half
   of the runs share one check, as a refreshed key's wraps do; in the
   others each entry draws its own, and the run splits into groups. *)
let gen_group =
  QCheck.Gen.(
    triple any_int any_int (opt ~ratio:0.5 (bytes_size (return Key.check_size)))
    >>= fun (target_node, target_version, shared) ->
    list_size (int_range 1 4)
      (quad
         (oneof [ any_int; map (( + ) target_node) (int_range (-40) 40) ])
         any_int any_int
         (bytes_size (return Key.wrapped_size)))
    >|= List.map (fun (wrapped_under, level, receivers, ciphertext) ->
            Option.iter (fun c -> Bytes.blit c 0 ciphertext Key.size Key.check_size) shared;
            { Rekey_msg.target_node; target_version; level; wrapped_under; receivers; ciphertext }))

let gen_entries lo hi = QCheck.Gen.(list_size (int_range lo hi) gen_group >|= List.concat)

(* Entries, plus a capacity from the tightest legal one up to 2 KiB
   beyond it. *)
let arb_batch =
  QCheck.make
    ~print:(fun (es, cap) -> Printf.sprintf "%d entries, capacity %d" (List.length es) cap)
    QCheck.Gen.(
      gen_entries 1 15 >>= fun es ->
      let tightest = List.fold_left (fun acc e -> max acc (payload_size [ e ])) 0 es in
      map (fun extra -> (es, tightest + extra)) (int_bound 2048))

let decode_all packets =
  List.concat_map
    (fun (p : Packet.t) ->
      match Packet.decode_payload p.payload with
      | Ok es -> es
      | Error e -> QCheck.Test.fail_report e)
    packets

let prop_any_int_roundtrip =
  QCheck.Test.make ~name:"varint entries round-trip any int" ~count:300 arb_batch
    (fun (entries, capacity_bytes) ->
      entries_equal entries (decode_all (Packet.encode_entries ~capacity_bytes entries)))

let prop_payload_size =
  QCheck.Test.make ~name:"payload = count varint + group sizes, within capacity" ~count:300
    arb_batch (fun (entries, capacity_bytes) ->
      List.for_all
        (fun (p : Packet.t) ->
          let es = Result.get_ok (Packet.decode_payload p.payload) in
          let n = Bytes.length p.payload in
          n <= capacity_bytes && n = payload_size es)
        (Packet.encode_entries ~capacity_bytes entries))

let prop_zero_extended =
  QCheck.Test.make ~name:"zero-extended payloads decode to the same entries" ~count:200
    (QCheck.pair arb_batch QCheck.(int_range 1 300))
    (fun ((entries, capacity_bytes), pad) ->
      List.for_all
        (fun (p : Packet.t) ->
          let padded = Bytes.cat p.payload (Bytes.make pad '\000') in
          match (Packet.decode_payload p.payload, Packet.decode_payload padded) with
          | Ok a, Ok b -> entries_equal a b
          | _ -> false)
        (Packet.encode_entries ~capacity_bytes entries))

(* LEB128 of the 63-bit pattern [u]; with [extra] > 0, an overlong
   spelling: a continuation bit on the real last byte, then [extra]
   zero groups. *)
let rec leb ?(extra = 0) u =
  let last = u lsr 7 = 0 in
  if last && extra = 0 then String.make 1 (Char.chr u)
  else
    String.make 1 (Char.chr (u land 0x7F lor 0x80))
    ^ leb ~extra:(if last then extra - 1 else extra) (u lsr 7)

(* A payload spelled by hand, its varint number [field] (in
   {!fold_layout}'s order: 0 is the group count, 1-3 the first group's
   header, 4 its first wrapped delta) replaced by [spell]'s bytes. *)
let hand_payload ?(field = -1) ?(spell = fun u -> leb u) entries =
  let buf = Buffer.create 256 in
  ignore
    (fold_layout
       ~varint:(fun i u ->
         Buffer.add_string buf (if i = field then spell u else leb u);
         i + 1)
       ~raw:(fun i b ->
         Buffer.add_bytes buf b;
         i)
       0 entries);
  Buffer.to_bytes buf

let n_fields es = fold_layout ~varint:(fun i _ -> i + 1) ~raw:(fun i _ -> i) 0 es

let refused b =
  match Packet.decode_payload b with
  | Ok _ -> false
  | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let arb_entries_field =
  QCheck.make
    ~print:(fun (es, f) -> Printf.sprintf "%d entries, field %d" (List.length es) f)
    QCheck.Gen.(
      gen_entries 1 4 >>= fun es -> map (fun f -> (es, f)) (int_bound (n_fields es - 1)))

let prop_hand_spelling =
  QCheck.Test.make ~name:"decode refuses non-canonical varints, never raises" ~count:300
    arb_entries_field (fun (entries, field) ->
      Bytes.equal (hand_payload entries) (Packet.encode_payload entries)
      && refused (hand_payload ~field ~spell:(leb ~extra:1) entries)
      && refused (hand_payload ~field ~spell:(leb ~extra:3) entries)
      (* nine full groups and then a 10th byte *)
      && refused (hand_payload ~field ~spell:(fun _ -> String.make 9 '\xff' ^ "\x00") entries)
      && refused (hand_payload ~field ~spell:(fun _ -> String.make 9 '\xff' ^ "\x01") entries))

let prop_hostile_counts =
  QCheck.Test.make ~name:"decode refuses hostile counts and lengths" ~count:200
    (QCheck.pair (QCheck.make (gen_entries 1 4)) QCheck.small_nat)
    (fun (entries, extra) ->
      let n = List.length entries in
      let groups spell = hand_payload ~field:0 ~spell entries in
      let leb63 = String.make 8 '\xff' ^ "\x7f" (* 2^63 - 1: beyond max_int *) in
      refused (groups (fun _ -> leb (List.length (runs entries) + 1 + extra)))
      && refused (groups (fun _ -> leb max_int))
      && refused (groups (fun _ -> leb63))
      (* the first group's count * 4 + kind, beyond max_int or the
         entries the bytes hold *)
      && refused (hand_payload ~field:3 ~spell:(fun _ -> leb63) entries)
      && refused
           (hand_payload ~field:3 ~spell:(fun u -> leb (u + (4 * (1 + extra + (300 * n))))) entries))

(* Damaged payloads: whatever the decoder accepts re-encodes to the
   bytes it consumed, so it accepts one spelling of each entry list. *)
let prop_fixpoint =
  QCheck.Test.make ~name:"accepted payloads re-encode to the bytes they consumed" ~count:500
    QCheck.(
      pair (make (gen_entries 1 4)) (list_of_size Gen.(int_range 1 4) (pair small_nat (int_bound 255))))
    (fun (entries, flips) ->
      let b = Packet.encode_payload entries in
      List.iter (fun (i, v) -> Bytes.set b (i mod Bytes.length b) (Char.chr v)) flips;
      match Packet.decode_payload b with
      | Error _ -> true
      | Ok es ->
          let again = Packet.encode_payload es in
          Bytes.length again <= Bytes.length b
          && Bytes.equal again (Bytes.sub b 0 (Bytes.length again))
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Payloads spelled out byte by byte. *)
let golden what ~bytes ~two_block entries expected =
  Alcotest.(check string) (what ^ ": bytes") expected (Bytes.to_string (Packet.encode_payload entries));
  Alcotest.(check int) (what ^ ": length") bytes (String.length expected);
  Alcotest.(check int) (what ^ ": with two-block wraps") two_block (two_block_payload_size entries);
  match Packet.decode_payload (Bytes.of_string expected) with
  | Ok es ->
      Alcotest.(check bool) (what ^ ": decodes") true (entries_equal entries es);
      List.iter
        (fun (e : Rekey_msg.entry) ->
          Alcotest.(check (pair int int)) "level, receivers" (0, 0) (e.level, e.receivers))
        es
  | Error e -> Alcotest.fail e

let golden_entry target_node target_version wrapped_under ciphertext =
  { Rekey_msg.target_node; target_version; level = 7; wrapped_under; receivers = 9; ciphertext }

(* A classical wrap: block [b], check [c], 16 bytes each. *)
let golden_wrap b c = Bytes.of_string (String.make 16 b ^ String.make 16 c)

(* Two groups: K5 v2 wrapped under K11 and K12, one check "x..."
   between them, then the DEK (-1) v3 wrapped under K5, check "z...". *)
let test_golden_payload () =
  golden "two groups" ~bytes:90 ~two_block:106
    [
      golden_entry 5 2 11 (golden_wrap 'a' 'x');
      golden_entry 5 2 12 (golden_wrap 'b' 'x');
      golden_entry (-1) 3 5 (golden_wrap 'c' 'z');
    ]
    (String.concat ""
       [
         "\x02" (* two groups *);
         "\x0a\x04\x08" (* target +5, version +2, 2 entries of kind 0 *);
         "\x0c" (* K11 = K5 + 6 *);
         "\x02" (* K12 = K11 + 1 *);
         "\x0b\x02\x04" (* target -6, version +1, 1 entry of kind 0 *);
         "\x0c" (* K5 = -1 + 6 *);
         String.make 16 'x' (* the first group's check *);
         String.make 16 'a';
         String.make 16 'b';
         String.make 16 'z' (* the second group's check *);
         String.make 16 'c';
       ])

(* A run of one target, version and kind whose checks differ is two
   groups, the second at deltas (0, 0). *)
let test_checks_split () =
  golden "differing checks" ~bytes:73 ~two_block:70
    [ golden_entry 5 2 11 (golden_wrap 'a' 'x'); golden_entry 5 2 12 (golden_wrap 'b' 'y') ]
    (String.concat ""
       [
         "\x02" (* two groups *);
         "\x0a\x04\x04" (* target +5, version +2, 1 entry of kind 0 *);
         "\x0c" (* K11 = K5 + 6 *);
         "\x00\x00\x04" (* the same target and version, 1 entry of kind 0 *);
         "\x0e" (* K12 = K5 + 7 *);
         String.make 16 'x';
         String.make 16 'a';
         String.make 16 'y';
         String.make 16 'b';
       ])

let test_malformed_groups () =
  let check = String.make 16 'c' and block = String.make 16 'w' in
  let error what s =
    match Packet.decode_payload (Bytes.of_string s) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let accepted what s =
    match Packet.decode_payload (Bytes.of_string s) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s refused: %s" what e
  in
  (* one group: K1 v0, one wrap under K1; then its check and block *)
  let group header = "\x02\x00" ^ header ^ "\x00" in
  let material = check ^ block in
  accepted "a one-wrap group" ("\x01" ^ group "\x04" ^ material);
  error "a zero-count group" ("\x01" ^ group "\x00" ^ material);
  (* kind 0, a classical wrap, is the only entry kind *)
  error "kind 1" ("\x01" ^ group "\x05" ^ material);
  error "kind 1, a 20-byte entry" ("\x01\x02\x00\x05\x00" ^ String.make 20 'w');
  error "kind 2" ("\x01" ^ group "\x06" ^ material);
  error "kind 2, a 4-byte entry" "\x01\x02\x00\x06\x00\x00\x00\x00\x01";
  error "kind 3" ("\x01" ^ group "\x07" ^ material);
  error "kind 1 with no bytes behind it" "\x01\x02\x00\x05";
  error "kind 2 with no bytes behind it" "\x01\x02\x00\x06";
  error "kind 3 with no bytes behind it" "\x01\x02\x00\x07";
  (* a second group with the same target, version and kind *)
  let again header = "\x00\x00" ^ header ^ "\x00" in
  error "a repeated group key and check"
    ("\x02" ^ group "\x04" ^ again "\x04" ^ material ^ check ^ block);
  accepted "the same target, version and kind, another check"
    ("\x02" ^ group "\x04" ^ again "\x04" ^ material ^ String.make 16 'C' ^ block);
  error "the same target and version, kind 2"
    ("\x02" ^ group "\x04" ^ again "\x06" ^ material ^ "\x00\x00\x00\x01");
  error "an overlong target delta" ("\x01\x82\x00\x00\x04\x00" ^ material);
  error "an overlong wrapped delta" ("\x01\x02\x00\x04\x80\x00" ^ material);
  error "an overlong count" ("\x01\x02\x00\x84\x00\x00" ^ material);
  error "a count the bytes cannot pay for" ("\x01" ^ group (leb (1000 * 4)) ^ material);
  error "two entries, one paid for" ("\x01\x02\x00\x08\x00\x00" ^ material);
  error "more groups than bytes" ("\x7f" ^ group "\x04" ^ material);
  error "a cut check" ("\x01" ^ group "\x04" ^ String.sub check 0 10);
  error "a cut ciphertext" ("\x01" ^ group "\x04" ^ check ^ String.sub block 0 10);
  error "no key material at all" ("\x01" ^ group "\x04")

let test_kindless_ciphertext_refused () =
  match
    Packet.encode_payload
      [
        {
          Rekey_msg.target_node = 1;
          target_version = 1;
          level = 0;
          wrapped_under = 2;
          receivers = 1;
          ciphertext = Bytes.make 31 'x';
        };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a 31-byte ciphertext encoded"

(* Real rekeys of every organization, packed at every capacity from
   the floor up: each packet decodes alone to its share of the
   entries, and the packets of a block that lost two to FEC decode
   from their zero-extended recoveries. *)
let organization_rekeys selector =
  let spec = Result.get_ok (Organization.spec_of_string ~degree:3 ~s_period:2 ~seed:7 selector) in
  let module O = (val Organization.create spec : Organization.S) in
  let register m =
    ignore
      (O.register ~member:m
         ~cls:(if m mod 2 = 0 then Scheme.Short else Scheme.Long)
         ~loss:(if m mod 3 = 0 then 0.2 else 0.01))
  in
  List.iter register (range 0 39);
  let first = O.rekey () in
  let later =
    List.filter_map
      (fun i ->
        O.enqueue_departure (7 * i);
        register (100 + i);
        O.rekey ())
      (range 1 4)
  in
  List.map (fun (m : Rekey_msg.t) -> m.entries) (Option.to_list first @ later)

let rec chunks n l =
  match l with
  | [] -> []
  | _ -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

let test_every_organization () =
  let capacities = [ Packet.min_capacity_bytes; Packet.min_capacity_bytes + 1; 64; 100; 256; 1024 ] in
  List.iter
    (fun selector ->
      let rekeys = organization_rekeys selector in
      Alcotest.(check bool) (selector ^ ": rekeys with entries") true (List.exists (( <> ) []) rekeys);
      List.iter
        (fun entries ->
          List.iter
            (fun capacity_bytes ->
              let what = Printf.sprintf "%s at %d B" selector capacity_bytes in
              let packets = Packet.encode_entries ~capacity_bytes entries in
              let alone =
                List.map
                  (fun (p : Packet.t) ->
                    Alcotest.(check bool) (what ^ ": within capacity") true
                      (Bytes.length p.payload <= capacity_bytes);
                    match Packet.decode_payload p.payload with
                    | Ok es ->
                        Alcotest.(check int) (what ^ ": exact size") (payload_size es)
                          (Bytes.length p.payload);
                        es
                    | Error e -> Alcotest.failf "%s: %s" what e)
                  packets
              in
              Alcotest.(check bool) (what ^ ": packets alone") true
                (entries_equal entries (List.concat alone));
              List.iter2
                (fun block expected ->
                  let k = List.length block in
                  let parity = List.mapi (fun j s -> (j, s)) (Packet.parity_shards block ~nparity:2) in
                  let data =
                    List.filter_map
                      (fun (p : Packet.t) ->
                        if p.index_in_block < 2 then None else Some (p.index_in_block, p.payload))
                      block
                  in
                  match Packet.recover_block ~k ~data ~parity with
                  | Error e -> Alcotest.failf "%s: %s" what e
                  | Ok payloads ->
                      List.iter2
                        (fun payload es ->
                          match Packet.decode_payload payload with
                          | Ok got ->
                              Alcotest.(check bool) (what ^ ": recovered") true (entries_equal es got)
                          | Error e -> Alcotest.failf "%s: recovered: %s" what e)
                        payloads expected)
                (Packet.blocks_of_packets ~block_size:4 packets)
                (chunks 4 alone))
            capacities)
        rekeys)
    [
      "one";
      "qt";
      "tt";
      "composed";
      "loss:0.05";
      "random:2";
    ]

(* TT at N = 1024: ten churned rekeys, packed at 1 KiB, pinned to the
   byte. Together they cost at most 0.75x what the layout with
   two-block wraps spent (0.66x: 84,785 B against 127,553 B). *)
let test_tt_byte_pin () =
  let s = Scheme.create { (Scheme.default_config Scheme.Tt) with seed = 1 } in
  let rng = Prng.create 23 in
  let live = Hashtbl.create 1100 and next = ref 0 in
  let join () =
    let m = !next in
    incr next;
    Hashtbl.replace live m ();
    ignore
      (Scheme.register s ~member:m ~cls:(if Prng.float rng 1.0 < 0.8 then Scheme.Short else Scheme.Long))
  in
  for _ = 1 to 1024 do
    join ()
  done;
  ignore (Scheme.rekey s);
  let rekey () =
    let ids = List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) live []) |> Array.of_list in
    let departs = List.sort_uniq compare (List.init 24 (fun _ -> ids.(Prng.int rng (Array.length ids)))) in
    List.iter
      (fun m ->
        Hashtbl.remove live m;
        Scheme.enqueue_departure s m)
      departs;
    List.iter (fun _ -> join ()) departs;
    (Option.get (Scheme.rekey s)).Rekey_msg.entries
  in
  let rekeys = List.init 10 (fun _ -> rekey ()) in
  let packed entries =
    List.fold_left
      (fun acc (p : Packet.t) -> acc + Bytes.length p.payload)
      0
      (Packet.encode_entries ~capacity_bytes:1024 entries)
  in
  Alcotest.(check (list int))
    "payload bytes per rekey"
    [ 5518; 5158; 5426; 5508; 5966; 5428; 5959; 5246; 5516; 35741 ]
    (List.map packed rekeys);
  let total size = List.fold_left (fun acc es -> acc + size es) 0 rekeys in
  let hoisted = total (fun es -> Bytes.length (Packet.encode_payload es))
  and two_block = total two_block_payload_size in
  Alcotest.(check bool)
    (Printf.sprintf "%d B <= 0.75 x %d B" hoisted two_block)
    true
    (float_of_int hoisted <= 0.75 *. float_of_int two_block)

(* The selective read against the whole one. Nodes 0..7 each have a
   key per version 0..2; an entry wraps some node's key at a version
   under another node's version-0 key, or, now and then, under a key
   no member holds, so that its check fails. A member starts holding
   a random subset of the version-0 keys. One copy processes every
   entry of the decoded payload; another sees only the entries
   [read_payload] hands over when [Member.interested] selects them,
   decrypted from a sealed record by range. Both must end holding the
   same keys, and the record must decrypt no more blocks than it has. *)
module Member = Gkm_lkh.Member
module Aead = Gkm_crypto.Aead

let node_key = Array.init 8 (fun n -> Array.init 3 (fun v -> Key.of_bytes (Bytes.make 16 (Char.chr ((n * 3) + v + 1)))))
let stray_key = Key.of_bytes (Bytes.make 16 '\xee')

let gen_selective =
  QCheck.Gen.(
    let entry =
      map
        (fun (target, version, under, stray) ->
          let kek = if stray = 0 then stray_key else node_key.(under).(0) in
          {
            Rekey_msg.target_node = target;
            target_version = version;
            level = 0;
            wrapped_under = under;
            receivers = 0;
            ciphertext = Key.wrap ~kek node_key.(target).(version);
          })
        (quad (int_bound 7) (int_bound 2) (int_bound 7) (int_bound 5))
    in
    pair (list_size (int_range 0 24) entry) (pair (int_bound 7) (list_size (int_bound 8) (int_bound 7))))

let arb_selective =
  QCheck.make
    ~print:(fun (es, (leaf, held)) ->
      Printf.sprintf "%d entries %s; leaf %d holds %s" (List.length es)
        (String.concat " "
           (List.map
              (fun (e : Rekey_msg.entry) ->
                Printf.sprintf "K%d.v%d/K%d" e.target_node e.target_version e.wrapped_under)
              es))
        leaf
        (String.concat "," (List.map string_of_int held)))
    gen_selective

let member_of (leaf, held) =
  let m = Member.create ~id:0 ~leaf_node:leaf ~individual_key:node_key.(leaf).(0) in
  Member.install_path m (List.map (fun n -> (n, node_key.(n).(0))) held);
  m

let prop_selective_equals_full =
  QCheck.Test.make ~name:"selective reads leave the keys a full read leaves" ~count:500 arb_selective
    (fun (entries, state) ->
      let payload = Packet.encode_payload entries in
      let full = member_of state and selective = member_of state in
      List.iter
        (fun e -> ignore (Member.process_entry full e))
        (Result.get_ok (Packet.decode_payload payload));
      let aead = Aead.of_bytes (Bytes.make Aead.key_size 'k') in
      let nonce = Bytes.make Aead.nonce_size '\000' and ad = Bytes.empty in
      let o = Result.get_ok (Aead.verify aead ~nonce ~ad (Aead.seal aead ~nonce ~ad payload)) in
      let fed = ref 0 in
      (match
         Aead.parse o ~off:0 (fun r ->
             Packet.read_payload r ~select:(Member.interested selective) (fun e ->
                 incr fed;
                 ignore (Member.process_entry selective e)))
       with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      let holds m = List.init 8 (fun n -> Option.map Key.to_bytes (Member.Private.key_of m n)) in
      holds full = holds selective
      && !fed <= List.length entries
      && Aead.blocks_decrypted o <= Aead.blocks o)

let () =
  Alcotest.run "gkm_packet"
    [
      ( "packet",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "capacity validation" `Quick test_packet_capacity_too_small;
          Alcotest.test_case "blocking" `Quick test_packet_blocks;
          Alcotest.test_case "FEC recovery" `Quick test_packet_fec_recovery;
          Alcotest.test_case "FEC insufficient shards" `Quick test_packet_fec_insufficient;
          Alcotest.test_case "lossy end-to-end with real bytes" `Quick test_packet_lossy_end_to_end;
          Alcotest.test_case "wide (i64) roundtrip" `Quick test_packet_wide_roundtrip;
          Alcotest.test_case "ids beyond i32 round-trip without ~wide" `Quick
            test_packet_big_ids_without_wide;
        ]
        @ [
            QCheck_alcotest.to_alcotest prop_packet_roundtrip;
            QCheck_alcotest.to_alcotest prop_packet_wide_roundtrip;
            QCheck_alcotest.to_alcotest prop_packet_fec_short_tail;
          ]
        @ [
            Alcotest.test_case "every organization round-trips" `Quick test_every_organization;
            Alcotest.test_case "TT byte pin" `Quick test_tt_byte_pin;
          ] );
      ( "varint",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_any_int_roundtrip;
            prop_payload_size;
            prop_zero_extended;
            prop_hand_spelling;
            prop_hostile_counts;
            prop_fixpoint;
          ]
        @ [
            Alcotest.test_case "golden two-group payload" `Quick test_golden_payload;
            Alcotest.test_case "differing checks split a run" `Quick test_checks_split;
            Alcotest.test_case "malformed groups are errors" `Quick test_malformed_groups;
            Alcotest.test_case "kindless ciphertext refused" `Quick test_kindless_ciphertext_refused;
          ] );
      ("select", [ QCheck_alcotest.to_alcotest prop_selective_equals_full ]);
    ]
