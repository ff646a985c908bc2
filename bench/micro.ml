(* Bechamel microbenchmarks: one Test.make per paper table/figure
   (measuring the cost of regenerating that artifact from the analytic
   model) plus the hot substrate operations. *)

open Bechamel
open Toolkit
module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree
open Gkm_analytic

let figure_tests =
  let p = Params.default in
  let lc = Loss_homogenized.default in
  [
    Test.make ~name:"table1-derive" (Staged.stage (fun () -> ignore (Two_partition.derive p)));
    Test.make ~name:"fig3-point"
      (Staged.stage (fun () -> ignore (Two_partition.cost { p with k = 10 } Two_partition.Tt)));
    Test.make ~name:"fig4-point"
      (Staged.stage (fun () ->
           ignore (Two_partition.reduction { p with alpha = 0.9 } Two_partition.Qt)));
    Test.make ~name:"fig5-point"
      (Staged.stage (fun () ->
           ignore (Two_partition.reduction { p with n = 262144 } Two_partition.Tt)));
    Test.make ~name:"fig6-point"
      (Staged.stage (fun () -> ignore (Loss_homogenized.loss_homogenized lc ~alpha:0.3)));
    Test.make ~name:"fig7-point"
      (Staged.stage (fun () -> ignore (Loss_homogenized.mispartitioned lc ~alpha:0.2 ~beta:0.5)));
    Test.make ~name:"sec44-point"
      (Staged.stage (fun () ->
           ignore (Proactive_fec.reduction Proactive_fec.default lc ~alpha:0.1)));
  ]

(* A member's receive of a set-up rekey of the live benchmark's group
   (TT, 256 members, one join and one leave an interval): before the
   members' first S->L migration each such rekey is one record of 17
   entries sent to every member. Whole: the member opens the record,
   decodes every entry and hands each to its state. Selective: one
   MAC, then only the REKEY fields, the payload's metadata and the
   key material of the entries the member selects. Both start from a
   fresh copy of the same member state, so the difference is the
   decryption the selective open skips. *)
let warmup_open_tests ~dek =
  let module Record = Gkm_record.Record in
  let module Msg = Gkm_wire.Msg in
  let module Packet = Gkm_transport.Packet in
  let module Member = Gkm_lkh.Member in
  let module Scheme = Gkm.Scheme in
  let s = Scheme.create { (Scheme.default_config Scheme.Tt) with seed = 1 } in
  for m = 0 to 255 do
    ignore (Scheme.register s ~member:m ~cls:Scheme.Long)
  done;
  ignore (Scheme.rekey s);
  let rec warmup_rekey churner =
    ignore (Scheme.register s ~member:churner ~cls:Scheme.Long);
    if churner > 256 then Scheme.enqueue_departure s (churner - 1);
    let path = Scheme.member_path s 7 and root = Option.get (Scheme.root_node s) in
    let fan_out (msg : Gkm_lkh.Rekey_msg.t) =
      (* as the server sends it: less what only the joiner could use *)
      Gkm_lkh.Rekey_msg.for_audience ~fresh:[ Scheme.member_path s churner ] msg.entries
    in
    match Option.map fan_out (Scheme.rekey s) with
    | Some entries when List.length entries = 17 -> (path, root, entries)
    | _ when churner < 256 + Scheme.s_period s -> warmup_rekey (churner + 1)
    | _ -> failwith "micro: no 17-entry set-up rekey"
  in
  let path, root, entries = warmup_rekey 256 in
  let packet =
    match Packet.encode_entries ~capacity_bytes:1024 entries with
    | [ p ] -> p
    | _ -> failwith "micro: the set-up rekey spans packets"
  in
  let inner =
    Msg.encode_inner (Msg.Rekey { rekey_no = 2; org = 2; epoch = 1; root; seq = 0; total = 1; packet })
  in
  let epoch = Record.Epoch.of_dek ~dek ~label:0 in
  let seq, ct = Record.Seal.seal (Record.Seal.create epoch) inner in
  let member () =
    let m = Member.create ~id:7 ~leaf_node:(fst (List.hd path)) ~individual_key:(snd (List.hd path)) in
    Member.install_path m path;
    Member.set_root m root;
    m
  in
  let whole () =
    let m = member () in
    match Record.Sink.open_ (Record.Sink.create epoch) ~seq ct with
    | Ok pt -> (
        match Msg.decode_inner pt with
        | Ok (Msg.Rekey r) ->
            List.iter
              (fun e -> ignore (Member.process_entry m e))
              (Result.get_ok (Packet.decode_payload r.packet.payload));
            m
        | _ -> failwith "micro: not a REKEY")
    | Error _ -> failwith "micro: the record failed to open"
  in
  let selective () =
    let m = member () and sink = Record.Sink.create epoch in
    match Record.Sink.peek sink ~seq ct with
    | Ok record -> (
        Record.Sink.accept sink ~seq;
        match Msg.decode_inner_head record with
        | Ok (Msg.Rekey _, off) ->
            Result.get_ok
              (Gkm_crypto.Aead.parse record ~off (fun r ->
                   Packet.read_payload r ~select:(Member.interested m) (fun e ->
                       ignore (Member.process_entry m e))));
            m
        | _ -> failwith "micro: not a REKEY")
    | Error _ -> failwith "micro: the record failed to open"
  in
  let dek_of m = Option.map Key.to_bytes (Member.group_key m) in
  if dek_of (whole ()) <> dek_of (selective ()) || dek_of (whole ()) = dek_of (member ()) then
    failwith "micro: the two opens must reach the same new DEK";
  [
    Test.make ~name:"record-open-17key-whole" (Staged.stage (fun () -> ignore (whole ())));
    Test.make ~name:"record-open-17key-selective" (Staged.stage (fun () -> ignore (selective ())));
  ]

let substrate_tests =
  let rng = Prng.create 1 in
  let payload = Prng.bytes rng 1024 in
  let aes_key = Gkm_crypto.Aes128.expand (Prng.bytes rng 16) in
  let block = Prng.bytes rng 16 in
  let kek = Key.fresh rng and inner = Key.fresh rng in
  let code = Gkm_fec.Reed_solomon.create ~k:8 in
  let shards = Array.init 8 (fun _ -> Prng.bytes rng 800) in
  let parity = Gkm_fec.Reed_solomon.encode code ~data:shards ~nparity:4 in
  let decode_input =
    [ (1, shards.(1)); (3, shards.(3)); (4, shards.(4)); (6, shards.(6));
      (8, parity.(0)); (9, parity.(1)); (10, parity.(2)); (11, parity.(3)) ]
  in
  (* Steady-size churn on a 256-member tree: one join + one departure. *)
  let tree = Keytree.create ~degree:4 (Prng.create 2) in
  let key_rng = Prng.create 3 in
  for m = 0 to 255 do
    ignore (Keytree.batch_update tree ~departed:[] ~joined:[ (m, Key.fresh key_rng) ])
  done;
  let next = ref 256 in
  [
    Test.make ~name:"sha256-1KiB"
      (Staged.stage (fun () -> ignore (Gkm_crypto.Sha256.digest payload)));
    (* 55 bytes pad to exactly one 64-byte block: one compression. *)
    (let msg = Bytes.sub payload 0 55 in
     Test.make ~name:"sha256-block"
       (Staged.stage (fun () -> ignore (Gkm_crypto.Sha256.digest msg))));
    (let key = Key.to_bytes kek and msg = Bytes.sub payload 0 183 in
     Test.make ~name:"hmac-183B" (Staged.stage (fun () -> ignore (Gkm_crypto.Hmac.mac ~key msg))));
    (* The same MAC under a key prepared once, as an AEAD key holds it:
       the difference to hmac-183B is the two pad compressions. *)
    (let key = Gkm_crypto.Hmac.prepare (Key.to_bytes kek) and msg = Bytes.sub payload 0 183 in
     Test.make ~name:"hmac-prepared-183B"
       (Staged.stage (fun () -> ignore (Gkm_crypto.Hmac.apply key [ (msg, 0, 183) ]))));
    (let module Aead = Gkm_crypto.Aead in
     let key = Aead.of_bytes (Bytes.sub payload 0 Aead.key_size) in
     let nonce = block and ad = Bytes.of_string "gkmrec2" in
     let sealed = Aead.seal key ~nonce ~ad (Bytes.sub payload 0 140) in
     Test.make ~name:"aead-open-140B"
       (Staged.stage (fun () -> ignore (Aead.open_ key ~nonce ~ad sealed))));
    Test.make ~name:"record-epoch-of-dek"
      (Staged.stage (fun () -> ignore (Gkm_record.Record.Epoch.of_dek ~dek:inner ~label:0)));
    (* A member's receive of a 1-key rekey: a 55-byte inner REKEY
       message, sealed, opened through a fresh sink, so that every
       open is a first one: the MAC, then every block decrypted. (A
       replay is refused after the MAC, before any decrypt.) *)
    (let module Record = Gkm_record.Record in
     let epoch = Record.Epoch.of_dek ~dek:inner ~label:0 in
     let seq, ct = Record.Seal.seal (Record.Seal.create epoch) (Bytes.sub payload 0 55) in
     Test.make ~name:"record-open-1key"
       (Staged.stage (fun () -> ignore (Record.Sink.open_ (Record.Sink.create epoch) ~seq ct))));
  ]
  @ warmup_open_tests ~dek:inner
  @ [

    (* A 0-RTT rejoin's crypto at the server and the member: open the
       presented ticket, derive the resume key, and seal and open the
       REJOIN_ACK carrying an 8-key path. The presented ticket is
       current, the common case, so the reply carries none. *)
    (let module Record = Gkm_record.Record in
     let module Msg = Gkm_wire.Msg in
     let sealer = Record.Ticket.Sealer.create ~seed:5 in
     let path = List.init 8 (fun i -> (i * 4, Key.fresh rng)) in
     let ticket =
       Record.Ticket.Sealer.issue sealer
         {
           Record.Ticket.member = 7;
           cls = `Long;
           loss = 0.0;
           issued_epoch = 3;
           issued_rekey = 9;
           path_digest = Record.Ticket.path_digest (List.map fst path);
         }
     in
     let resume =
       Msg.encode_resume
         { Msg.full = true; rekey_no = 9; epoch = 3; root = 0; path; ticket = Bytes.empty }
     in
     let individual = Key.fresh rng and n = ref 0L in
     Test.make ~name:"ticket-rejoin"
       (Staged.stage (fun () ->
            let c = Result.get_ok (Record.Ticket.Sealer.open_ sealer ticket) in
            let key = Record.Ticket.resume_key ~individual ~issued_epoch:c.issued_epoch in
            n := Int64.succ !n;
            let blob = Record.counter_seal key ~n:!n ~ad:Record.resume_ad resume in
            ignore (Record.counter_open key ~ad:Record.resume_ad blob))));
    Test.make ~name:"aes128-block"
      (Staged.stage (fun () -> ignore (Gkm_crypto.Aes128.encrypt_block aes_key block)));
    Test.make ~name:"aes128-decrypt-block"
      (Staged.stage (fun () -> ignore (Gkm_crypto.Aes128.decrypt_block aes_key block)));
    Test.make ~name:"aes128-expand"
      (Staged.stage (fun () -> ignore (Gkm_crypto.Aes128.expand block)));
    Test.make ~name:"key-wrap" (Staged.stage (fun () -> ignore (Key.wrap ~kek inner)));
    (let c = Key.cipher kek in
     Test.make ~name:"key-wrap-cached"
       (Staged.stage (fun () -> ignore (Key.wrap_with c inner))));
    (let c = Key.cipher kek in
     let wrapped = Key.wrap_with c inner in
     Test.make ~name:"key-unwrap-cached"
       (Staged.stage (fun () -> ignore (Key.unwrap_with c wrapped))));
    Test.make ~name:"rs-encode-8+4x800B"
      (Staged.stage (fun () -> ignore (Gkm_fec.Reed_solomon.encode code ~data:shards ~nparity:4)));
    Test.make ~name:"rs-decode-4-erasures"
      (Staged.stage (fun () -> ignore (Gkm_fec.Reed_solomon.decode code ~shards:decode_input)));
    Test.make ~name:"keytree-churn-256"
      (* One join + one departure through the whole hot path: tree
         restructure, key refresh, and every wrap ciphertext of the
         resulting rekey payload. *)
      (Staged.stage (fun () ->
           let m = !next in
           incr next;
           let updates =
             Keytree.batch_update tree ~departed:[ m - 256 ]
               ~joined:[ (m, Key.fresh key_rng) ]
           in
           List.iter
             (fun (u : Keytree.update) ->
               List.iter
                 (fun (w : Keytree.wrap) ->
                   ignore (Key.wrap_with (Lazy.force w.under_cipher) u.key))
                 u.wraps)
             updates));
    Test.make ~name:"Ne-65536-1684"
      (Staged.stage (fun () -> ignore (Batch_cost.expected_keys_int ~d:4 ~n:65536 ~l:1684)));
  ]

(* One [Loop.step] over [idle] registered socketpairs that never turn
   ready plus one whose unread byte keeps it readable. An event loop
   that costs O(ready) prices both rows the same. *)
let loop_step_test idle =
  let module Loop = Gkm_netd.Loop in
  let allocate () =
    let loop = Loop.create () in
    let pairs = List.init (idle + 1) (fun _ -> Unix.socketpair PF_UNIX SOCK_STREAM 0) in
    List.iter (fun (a, _) -> Loop.add_fd loop a ~readable:ignore ~writable:ignore) pairs;
    let _, b = List.hd pairs in
    ignore (Unix.write_substring b "x" 0 1);
    (loop, pairs)
  in
  let free (loop, pairs) =
    List.iter
      (fun (a, b) ->
        Loop.remove_fd loop a;
        Unix.close a;
        Unix.close b)
      pairs;
    Loop.close loop
  in
  Test.make_with_resource ~name:(Printf.sprintf "loop-step-%d-idle" idle) Test.uniq ~allocate
    ~free
    (Staged.stage (fun (loop, _) -> Loop.step ~max_wait:0.0 loop))

let run ?(quota = 0.5) () =
  let tests =
    Test.make_grouped ~name:"gkm" ~fmt:"%s/%s"
      (figure_tests @ substrate_tests @ [ loop_step_test 10; loop_step_test 1000 ])
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000)
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Printf.printf "\n";
  Printf.printf "================================================================\n";
  Printf.printf "Microbenchmarks (Bechamel, monotonic clock)\n";
  Printf.printf "================================================================\n";
  Printf.printf "%-36s %16s\n" "benchmark" "time/run";
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) ->
          if t > 1_000_000.0 then Printf.printf "%-36s %13.3f ms\n" name (t /. 1_000_000.0)
          else if t > 1_000.0 then Printf.printf "%-36s %13.3f us\n" name (t /. 1_000.0)
          else Printf.printf "%-36s %13.1f ns\n" name t
      | _ -> Printf.printf "%-36s %16s\n" name "n/a")
    (List.sort compare rows);
  Printf.printf "%!"
