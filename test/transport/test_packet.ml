module Prng = Gkm_crypto.Prng
module Key = Gkm_crypto.Key
module Rekey_msg = Gkm_lkh.Rekey_msg
module Server = Gkm_lkh.Server
open Gkm_transport

let range a b = List.init (b - a + 1) (fun i -> a + i)

let sample_entries ?(n = 30) ?(departs = [ 3; 17 ]) () =
  let server = Server.create ~seed:5 () in
  List.iter (fun m -> ignore (Server.register server m)) (range 0 (n - 1));
  ignore (Server.rekey server);
  List.iter (Server.enqueue_departure server) departs;
  (Option.get (Server.rekey server)).Rekey_msg.entries

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

(* A narrow payload: u16 count, then 20 fixed bytes + ciphertext per entry. *)
let narrow_size es =
  List.fold_left (fun acc (e : Rekey_msg.entry) -> acc + 20 + Bytes.length e.ciphertext) 2 es

let test_packet_roundtrip () =
  let entries = sample_entries () in
  let packets = Packet.encode_entries ~capacity_bytes:capacity entries in
  Alcotest.(check bool) "multiple packets" true (List.length packets > 1);
  let decoded =
    List.concat_map
      (fun (p : Packet.t) ->
        match Packet.decode_payload p.payload with
        | Ok es ->
            Alcotest.(check int) "exact encoded size" (narrow_size es) (Bytes.length p.payload);
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
  let entries = sample_entries () in
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
  let server = Server.create ~seed:9 () in
  let bootstrap = Hashtbl.create n in
  List.iter (fun m -> Hashtbl.replace bootstrap m (Server.register server m)) (range 0 (n - 1));
  let admission = Option.get (Server.rekey server) in
  let members = Hashtbl.create n in
  List.iter
    (fun m ->
      let leaf = fst (List.hd (Server.member_path server m)) in
      let mem = Member.create ~id:m ~leaf_node:leaf ~individual_key:(Hashtbl.find bootstrap m) in
      ignore (Member.process mem admission);
      Hashtbl.replace members m mem)
    (range 0 (n - 1));
  Server.enqueue_departure server 5;
  let msg = Option.get (Server.rekey server) in
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
  let dek = Option.get (Server.group_key server) in
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

(* The wide entry codec: i64 node ids, auto-detected at
   decode by the 0xFFFF sentinel. Composed organizations put band
   strides of 10^9 in node ids — beyond the narrow codec's i32. *)
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

let test_packet_narrow_rejects_wide_ids () =
  match Packet.encode_entries ~capacity_bytes:capacity wide_entries with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow codec accepted an out-of-range node id"

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
          Alcotest.test_case "narrow rejects wide ids" `Quick test_packet_narrow_rejects_wide_ids;
        ]
        @ [
            QCheck_alcotest.to_alcotest prop_packet_roundtrip;
            QCheck_alcotest.to_alcotest prop_packet_wide_roundtrip;
            QCheck_alcotest.to_alcotest prop_packet_fec_short_tail;
          ] );
    ]
