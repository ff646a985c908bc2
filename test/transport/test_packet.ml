module Prng = Gkm_crypto.Prng
module Key = Gkm_crypto.Key
module Rekey_msg = Gkm_lkh.Rekey_msg
module Scheme = Gkm.Scheme
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

let entries_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Rekey_msg.entry) (y : Rekey_msg.entry) ->
         x.target_node = y.target_node
         && x.target_version = y.target_version
         && x.level = y.level
         && x.wrapped_under = y.wrapped_under
         && x.receivers = y.receivers
         && Bytes.equal x.ciphertext y.ciphertext)
       a b

let capacity = 256

(* The layout, restated independently of the codec: LEB128 groups of
   7 bits over the 63-bit pattern, zigzag for the signed fields
   (modular arithmetic maps min_int to all ones, as it should). *)
let rec leb_width u = if u lsr 7 = 0 then 1 else 1 + leb_width (u lsr 7)
let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1

let entry_width (e : Rekey_msg.entry) =
  let ct = Bytes.length e.ciphertext in
  List.fold_left
    (fun acc v -> acc + leb_width (zigzag v))
    (leb_width ct + ct)
    [ e.target_node; e.target_version; e.level; e.wrapped_under; e.receivers ]

(* A payload: varint count, then every entry's varints and ciphertext. *)
let payload_size es =
  List.fold_left (fun acc e -> acc + entry_width e) (leb_width (List.length es)) es

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

let test_packet_capacity_too_small () =
  let entries = sample_entries () in
  match Packet.encode_entries ~capacity_bytes:10 entries with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny capacity accepted"

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
  let packets = Packet.encode_entries ~capacity_bytes:256 entries in
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
          let mask = Channel.multicast channel in
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
          let mask = Channel.multicast channel in
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

(* The varint layout over any int: edge values, both signs, values
   beyond 2^32, and ciphertexts of 0-300 bytes. *)
let any_int =
  QCheck.Gen.(
    oneof
      [
        int;
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; 63; -64; 64 ];
        map (fun k -> (1 lsl k) - 1) (int_range 0 62);
        map (fun k -> -(1 lsl k)) (int_range 0 62);
        map (fun v -> (1 lsl 32) + v) (int_bound 1_000_000);
      ])

let gen_entry =
  QCheck.Gen.(
    map
      (fun ((target_node, target_version, level), (wrapped_under, receivers, ct)) ->
        {
          Rekey_msg.target_node;
          target_version;
          level;
          wrapped_under;
          receivers;
          ciphertext = Bytes.of_string ct;
        })
      (pair (triple any_int any_int any_int)
         (triple any_int any_int (string_size ~gen:char (int_bound 300)))))

(* Entries, plus a capacity from the tightest legal one up to 2 KiB
   beyond it. *)
let arb_batch =
  QCheck.make
    ~print:(fun (es, cap) -> Printf.sprintf "%d entries, capacity %d" (List.length es) cap)
    QCheck.Gen.(
      list_size (int_range 1 40) gen_entry >>= fun es ->
      let tightest = 1 + List.fold_left (fun acc e -> max acc (entry_width e)) 0 es in
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
  QCheck.Test.make ~name:"payload = count varint + entry sizes, within capacity" ~count:300
    arb_batch (fun (entries, capacity_bytes) ->
      List.for_all
        (fun (p : Packet.t) ->
          let es = Result.get_ok (Packet.decode_payload p.payload) in
          let n = Bytes.length p.payload in
          n <= capacity_bytes
          && n = payload_size es
          && n
             = List.fold_left
                 (fun acc e -> acc + Packet.entry_size_of e)
                 (Gkm_crypto.Codec.uvarint_size (List.length es))
                 es)
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

(* A payload spelled by hand, one varint field of it (0 = the count,
   then six per entry) replaced by [spell]'s bytes. *)
let hand_payload ?(field = -1) ?(spell = fun u -> leb u) entries =
  let buf = Buffer.create 256 and i = ref 0 in
  let put u =
    Buffer.add_string buf (if !i = field then spell u else leb u);
    incr i
  in
  put (List.length entries);
  List.iter
    (fun (e : Rekey_msg.entry) ->
      List.iter
        (fun v -> put (zigzag v))
        [ e.target_node; e.target_version; e.level; e.wrapped_under; e.receivers ];
      put (Bytes.length e.ciphertext);
      Buffer.add_bytes buf e.ciphertext)
    entries;
  Buffer.to_bytes buf

let refused b =
  match Packet.decode_payload b with
  | Ok _ -> false
  | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let arb_entries_field =
  QCheck.make
    ~print:(fun (es, f) -> Printf.sprintf "%d entries, field %d" (List.length es) f)
    QCheck.Gen.(
      list_size (int_range 1 8) gen_entry >>= fun es ->
      map (fun f -> (es, f)) (int_bound (6 * List.length es)))

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
    (QCheck.pair (QCheck.make QCheck.Gen.(list_size (int_range 1 8) gen_entry)) QCheck.small_nat)
    (fun (entries, extra) ->
      let n = List.length entries in
      let count spell = hand_payload ~field:0 ~spell entries in
      let leb63 = String.make 8 '\xff' ^ "\x7f" (* 2^63 - 1: beyond max_int *) in
      refused (count (fun _ -> leb (n + 1 + extra)))
      && refused (count (fun _ -> leb max_int))
      && refused (count (fun _ -> leb63))
      (* the first ciphertext length, beyond max_int or the bytes left *)
      && refused (hand_payload ~field:6 ~spell:(fun _ -> leb63) entries)
      && refused
           (hand_payload ~field:6
              ~spell:(fun u -> leb (u + 1 + extra + (300 * n)))
              entries))

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
          ] );
      ( "varint",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_any_int_roundtrip;
            prop_payload_size;
            prop_zero_extended;
            prop_hand_spelling;
            prop_hostile_counts;
          ] );
    ]
