module Prng = Gkm_crypto.Prng
module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
module Scheme = Gkm.Scheme
module Rekey_msg = Gkm_lkh.Rekey_msg
open Gkm_transport

let range a b = List.init (b - a + 1) (fun i -> a + i)

(* The one-keytree LKH server: one balanced tree whose root is the DEK. *)
let one_keytree ~seed () = Scheme.create { (Scheme.default_config Scheme.One_keytree) with seed }

let register server m = Scheme.register server ~member:m ~cls:Scheme.Long

(* Build a group of [n] members on a channel where members < n_high
   are high-loss, run one batch of [departs] departures, and return
   (channel, trees, msg). *)
let make_group ?(seed = 1) ?(n = 64) ?(n_high = 16) ?(ph = 0.2) ?(pl = 0.0) ~departs () =
  let server = one_keytree ~seed () in
  List.iter (fun m -> ignore (register server m)) (range 0 (n - 1));
  ignore (Scheme.rekey server);
  List.iter (Scheme.enqueue_departure server) departs;
  let msg = Option.get (Scheme.rekey server) in
  let rng = Prng.create (seed + 100) in
  let specs =
    List.init n (fun m ->
        (m, if m < n_high then Loss_model.bernoulli ph else Loss_model.bernoulli pl))
  in
  let survivors = List.filter (fun (m, _) -> Scheme.is_member server m) specs in
  let channel = Channel.create ~rng survivors in
  (channel, Scheme.trees server, msg, server)

(* ------------------------------------------------------------------ *)
(* Job                                                                 *)

(* Receivers (dense indexes) needing entry [e]. *)
let interested_receivers job e =
  List.filter (fun r -> List.mem e (Job.interest job r)) (List.init (Job.n_receivers job) Fun.id)

let test_job_interest_matches_receivers () =
  let channel, trees, msg, _ = make_group ~departs:[ 3; 40 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  Alcotest.(check int) "entry count" (List.length msg.entries) (Job.n_entries job);
  for e = 0 to Job.n_entries job - 1 do
    let entry = Job.entry job e in
    Alcotest.(check int)
      (Printf.sprintf "entry %d interest = receivers field" e)
      entry.receivers
      (List.length (interested_receivers job e))
  done

let test_job_interest_is_path () =
  let channel, trees, msg, server = make_group ~departs:[ 7 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  (* A receiver's interest = entries wrapped under a node on its path. *)
  for r = 0 to Job.n_receivers job - 1 do
    let member = (Channel.receiver channel r).member in
    let path_ids = List.map fst (Scheme.member_path server member) in
    List.iter
      (fun e ->
        let entry = Job.entry job e in
        Alcotest.(check bool)
          (Printf.sprintf "member %d entry %d wrapped on path" member e)
          true
          (List.mem entry.wrapped_under path_ids))
      (Job.interest job r)
  done

let test_job_rejects_bad_interest () =
  let channel, _, msg, _ = make_group ~departs:[ 1 ] () in
  let entries = Array.of_list msg.entries in
  (match
     Job.Private.create ~channel ~entries ~interest:(Array.make (Channel.size channel) [ 9999 ])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range entry accepted");
  match Job.Private.create ~channel ~entries ~interest:[| [] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong interest length accepted"

(* ------------------------------------------------------------------ *)
(* Delivery.pack                                                       *)

let test_pack_basic () =
  let packets = Delivery.pack ~capacity:3 [ (0, 2); (1, 1); (2, 3) ] in
  Alcotest.(check (list (list int))) "packets" [ [ 0; 0; 1 ]; [ 2; 2; 2 ] ] packets

let test_pack_empty_and_errors () =
  Alcotest.(check (list (list int))) "empty" [] (Delivery.pack ~capacity:5 []);
  Alcotest.(check (list (list int))) "zero copies" [] (Delivery.pack ~capacity:5 [ (0, 0) ]);
  (match Delivery.pack ~capacity:0 [ (0, 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  match Delivery.pack ~capacity:3 [ (0, -1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

let prop_pack_preserves_copies =
  QCheck.Test.make ~name:"pack preserves multiset and order" ~count:200
    QCheck.(pair (int_range 1 10) (list_of_size Gen.(0 -- 20) (pair (int_range 0 50) (int_range 0 5))))
    (fun (capacity, copies) ->
      let packets = Delivery.pack ~capacity copies in
      let flat = List.concat packets in
      let expected = List.concat_map (fun (e, c) -> List.init c (fun _ -> e)) copies in
      flat = expected && List.for_all (fun p -> List.length p <= capacity && p <> []) packets)

(* ------------------------------------------------------------------ *)
(* Delivery.Private.expected_replications_of                                   *)

let test_expected_replications_matches_analytic () =
  let loss_of _ = 0.2 in
  let mine = Delivery.Private.expected_replications_of ~loss_of ~receivers:(range 0 99) in
  let theirs =
    Gkm_analytic.Wka_bkr.Private.expected_replications ~receivers:100.0 (Gkm_analytic.Wka_bkr.uniform 0.2)
  in
  Alcotest.(check (float 1e-6)) "formula 14 agreement" theirs mine

let test_expected_replications_empty () =
  Alcotest.(check (float 0.0)) "no receivers" 0.0
    (Delivery.Private.expected_replications_of ~loss_of:(fun _ -> 0.5) ~receivers:[]);
  Alcotest.(check (float 0.0)) "lossless receivers" 1.0
    (Delivery.Private.expected_replications_of ~loss_of:(fun _ -> 0.0) ~receivers:[ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* WKA-BKR                                                             *)

let test_wka_lossless_single_round () =
  let channel, trees, msg, _ = make_group ~n_high:0 ~departs:[ 5 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let outcome = Wka_bkr.deliver ~channel job in
  Alcotest.(check int) "one round" 1 outcome.rounds;
  Alcotest.(check int) "each key once" (Job.n_entries job) outcome.keys;
  Alcotest.(check int) "all delivered" 0 outcome.undelivered

let test_wka_lossy_completes () =
  let channel, trees, msg, _ = make_group ~n_high:16 ~ph:0.3 ~departs:[ 5; 20; 33 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let outcome = Wka_bkr.deliver ~channel job in
  Alcotest.(check int) "all delivered" 0 outcome.undelivered;
  Alcotest.(check bool) "replication happened" true (outcome.keys > Job.n_entries job);
  Alcotest.(check bool) "bandwidth = keys for WKA" true (outcome.bandwidth_keys = outcome.keys)

let test_wka_weights_favor_valuable_keys () =
  (* With loss, the first-round copies of the root key (needed by all)
     must be at least those of a leaf-level key (needed by few). This
     is observable through total keys exceeding entries when high-loss
     receivers exist, and through E[M] monotonicity, checked above.
     Here we check the protocol resends strictly less in later rounds
     (BKR re-packs only whats needed). *)
  let channel, trees, msg, _ = make_group ~n_high:64 ~ph:0.25 ~departs:[ 1 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let outcome = Wka_bkr.deliver ~channel job in
  Alcotest.(check int) "delivered" 0 outcome.undelivered;
  (* Total keys is bounded well below (rounds * entries * cap). *)
  Alcotest.(check bool) "no naive flooding" true
    (outcome.keys < outcome.rounds * Job.n_entries job * 16)

let test_wka_config_validation () =
  let channel, trees, msg, _ = make_group ~departs:[ 1 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  match
    Wka_bkr.deliver ~config:{ Wka_bkr.keys_per_packet = 0; max_rounds = 100; weight_cap = 16 } ~channel job
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad config accepted"

(* ------------------------------------------------------------------ *)
(* Multi-send                                                          *)

let test_multi_send_replicates () =
  let channel, trees, msg, _ = make_group ~n_high:0 ~departs:[ 2 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let outcome =
    Multi_send.deliver ~config:{ Multi_send.default with replication = 3 } ~channel job
  in
  Alcotest.(check int) "one round suffices (lossless)" 1 outcome.rounds;
  Alcotest.(check int) "3x replication" (3 * Job.n_entries job) outcome.keys;
  Alcotest.(check int) "delivered" 0 outcome.undelivered

let test_multi_send_wasteful_vs_wka () =
  (* Multi-send ignores key importance: under heterogeneous loss it
     sends more than WKA-BKR (the SZJ02 result). *)
  let mk seed = make_group ~seed ~n:128 ~n_high:16 ~ph:0.25 ~departs:[ 3; 77 ] () in
  let total deliver =
    List.fold_left
      (fun acc seed ->
        let channel, trees, msg, _ = mk seed in
        let job = Job.of_rekey ~channel ~trees msg in
        let o : Delivery.outcome = deliver ~channel job in
        Alcotest.(check int) "delivered" 0 o.undelivered;
        acc + o.keys)
      0 [ 1; 2; 3; 4; 5 ]
  in
  let wka = total (fun ~channel job -> Wka_bkr.deliver ~channel job) in
  let ms =
    total (fun ~channel job ->
        Multi_send.deliver ~config:{ Multi_send.default with replication = 3 } ~channel job)
  in
  Alcotest.(check bool) (Printf.sprintf "wka %d < multi-send %d" wka ms) true (wka < ms)

(* ------------------------------------------------------------------ *)
(* Proactive FEC                                                       *)

let test_fec_lossless () =
  let channel, trees, msg, _ = make_group ~n_high:0 ~departs:[ 9 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let cfg = { Proactive_fec.default with proactivity = 0.5 } in
  let outcome = Proactive_fec.deliver ~config:cfg ~channel job in
  Alcotest.(check int) "delivered" 0 outcome.undelivered;
  Alcotest.(check int) "one round" 1 outcome.rounds;
  Alcotest.(check int) "keys sent once" (Job.n_entries job) outcome.keys;
  (* Bandwidth accounts for the proactive parities. *)
  Alcotest.(check bool) "parity charged" true (outcome.bandwidth_keys > outcome.keys)

let test_fec_lossy_completes () =
  let channel, trees, msg, _ = make_group ~n:128 ~n_high:32 ~ph:0.3 ~departs:[ 5; 90 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let outcome = Proactive_fec.deliver ~channel job in
  Alcotest.(check int) "delivered" 0 outcome.undelivered;
  Alcotest.(check bool) "keys never replicated" true (outcome.keys = Job.n_entries job)

let test_fec_zero_proactivity () =
  let channel, trees, msg, _ = make_group ~n_high:8 ~ph:0.2 ~departs:[ 2 ] () in
  let job = Job.of_rekey ~channel ~trees msg in
  let cfg = { Proactive_fec.default with proactivity = 0.0 } in
  let outcome = Proactive_fec.deliver ~config:cfg ~channel job in
  Alcotest.(check int) "still completes via retransmission" 0 outcome.undelivered

(* ------------------------------------------------------------------ *)
(* Cross-protocol properties                                           *)

let transports =
  [
    ("wka-bkr", fun ~channel job -> Wka_bkr.deliver ~channel job);
    ( "multi-send",
      fun ~channel job ->
        Multi_send.deliver ~config:{ Multi_send.default with replication = 2 } ~channel job );
    ("fec", fun ~channel job -> Proactive_fec.deliver ~channel job);
  ]

let prop_all_transports_deliver =
  QCheck.Test.make ~name:"every transport delivers under random loss" ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 8 48) (float_range 0.0 0.4))
    (fun (seed, n, ph) ->
      let departs = [ 1; n / 2 ] in
      List.for_all
        (fun (_, deliver) ->
          let channel, trees, msg, _ =
            make_group ~seed ~n ~n_high:(n / 4) ~ph ~pl:0.02 ~departs ()
          in
          let job = Job.of_rekey ~channel ~trees msg in
          let o : Delivery.outcome = deliver ~channel job in
          o.undelivered = 0 && o.keys >= Job.n_entries job)
        transports)

let prop_deterministic_given_seed =
  QCheck.Test.make ~name:"delivery deterministic for a fixed seed" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let run () =
        let channel, trees, msg, _ = make_group ~seed ~n:32 ~n_high:8 ~ph:0.2 ~departs:[ 3 ] () in
        let job = Job.of_rekey ~channel ~trees msg in
        let o = Wka_bkr.deliver ~channel job in
        (o.Delivery.rounds, o.packets, o.keys)
      in
      run () = run ())

(* Failure injection: a receiver with total loss can never be served;
   every transport must hit its round limit, report the stragglers,
   and terminate rather than spin. *)
let test_round_limit_reported () =
  let n = 16 in
  let server = one_keytree ~seed:33 () in
  List.iter (fun m -> ignore (register server m)) (range 0 (n - 1));
  ignore (Scheme.rekey server);
  Scheme.enqueue_departure server 3;
  let msg = Option.get (Scheme.rekey server) in
  let make_channel () =
    let specs =
      List.init n (fun m ->
          (m, if m = 9 then Loss_model.bernoulli 1.0 else Loss_model.bernoulli 0.0))
    in
    let survivors = List.filter (fun (m, _) -> Scheme.is_member server m) specs in
    Channel.create ~rng:(Prng.create 34) survivors
  in
  List.iter
    (fun (name, deliver) ->
      let channel = make_channel () in
      let job = Job.of_rekey ~channel ~trees:(Scheme.trees server) msg in
      let o : Delivery.outcome = deliver ~channel job in
      Alcotest.(check int) (name ^ ": exactly the black-holed receiver left") 1 o.undelivered;
      Alcotest.(check bool) (name ^ ": bounded rounds") true (o.rounds <= 100))
    [
      ( "wka-bkr",
        fun ~channel job ->
          Wka_bkr.deliver ~config:{ Wka_bkr.keys_per_packet = 25; max_rounds = 20; weight_cap = 16 } ~channel job );
      ( "multi-send",
        fun ~channel job ->
          Multi_send.deliver ~config:{ Multi_send.default with max_rounds = 20 } ~channel job );
      ( "fec",
        fun ~channel job ->
          Proactive_fec.deliver
            ~config:{ Proactive_fec.default with max_rounds = 20 }
            ~channel job );
    ]

(* ------------------------------------------------------------------ *)
(* Equivalence against the seed algorithm: Wka_bkr_reference is the
   pre-optimization deliver loop (O(receivers) weight recomputation
   and per-round re-sort). Same seeded channel, same job — the
   incremental implementation must consume the channel RNG identically
   and produce the identical outcome. The loss populations use at most
   two distinct non-zero rates (the simulator's high/low model), where
   the incremental class sums are bit-identical. *)

let wka_outcomes_on ~seed ~n ~n_high ~ph ~pl ~departs =
  let run deliver =
    let channel, trees, msg, _ = make_group ~seed ~n ~n_high ~ph ~pl ~departs () in
    let job = Job.of_rekey ~channel ~trees msg in
    (deliver ~channel job : Delivery.outcome)
  in
  ( run (fun ~channel job -> Wka_bkr.deliver ~channel job),
    run (fun ~channel job -> Wka_bkr_reference.deliver ~channel job) )

let test_wka_matches_reference () =
  List.iter
    (fun (ph, pl) ->
      let o_new, o_ref =
        wka_outcomes_on ~seed:7 ~n:96 ~n_high:32 ~ph ~pl ~departs:[ 3; 40; 77 ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "outcome identical at ph=%.2f pl=%.2f" ph pl)
        true (o_new = o_ref))
    [ (0.2, 0.0); (0.25, 0.02); (0.5, 0.1) ]

let prop_wka_matches_reference =
  QCheck.Test.make ~name:"WKA-BKR incremental state matches seed outcome" ~count:30
    QCheck.(triple (int_range 0 1000) (int_range 8 64) (float_range 0.05 0.45))
    (fun (seed, n, ph) ->
      let departs = List.sort_uniq compare [ 1 mod n; n / 3; n / 2 ] in
      let o_new, o_ref =
        wka_outcomes_on ~seed ~n ~n_high:(n / 4) ~ph ~pl:0.02 ~departs
      in
      o_new = o_ref)

(* A receiver at loss 1 makes every term of E[M]'s series 1, so only a
   bound ends the sum before its 100,000-term guard. WKA-BKR passes
   [weight_cap + 0.5]: the bounded value stops within one term of it,
   and the delivery is the unbounded seed reference's, weight for
   weight. *)
let test_wka_black_hole_bounded () =
  let config = { Wka_bkr.keys_per_packet = 25; max_rounds = 5; weight_cap = 16 } in
  let bound = float_of_int config.weight_cap +. 0.5 in
  let run deliver =
    let channel, trees, msg, _ = make_group ~n:32 ~n_high:1 ~ph:1.0 ~pl:0.1 ~departs:[ 5 ] () in
    let job = Job.of_rekey ~channel ~trees msg in
    (channel, job, (deliver ~channel job : Delivery.outcome))
  in
  let channel, job, o_new = run (fun ~channel job -> Wka_bkr.deliver ~config ~channel job) in
  let _, _, o_ref = run (fun ~channel job -> Wka_bkr_reference.deliver ~config ~channel job) in
  Alcotest.(check int) "the black-holed receiver is left" 1 o_new.undelivered;
  Alcotest.(check bool) "outcome identical to the unbounded reference" true (o_new = o_ref);
  let loss_of r = Loss_model.mean_loss (Channel.receiver channel r).model in
  let state = Delivery.State.create ~loss_of job in
  let blocked = Job.interest job 0 in
  Alcotest.(check bool) "receiver 0 is black-holed" true (loss_of 0 = 1.0 && blocked <> []);
  List.iter
    (fun e ->
      let em = Delivery.State.expected_replications ~bound state ~e in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d stops at the bound (%g)" e em)
        true
        (em >= bound && em < bound +. 1.0))
    blocked

(* Below the bound the bounded series is the unbounded one, bit for
   bit; at or above it, it is still at least the bound. *)
let prop_bounded_em =
  QCheck.Test.make ~name:"bounded E[M] equals unbounded below the bound" ~count:100
    QCheck.(
      quad (int_range 0 1000) (int_range 8 48) (float_range 0.05 0.95) (float_range 1.0 20.0))
    (fun (seed, n, ph, bound) ->
      let channel, trees, msg, _ =
        make_group ~seed ~n ~n_high:(n / 4) ~ph ~pl:0.02 ~departs:[ 1; n / 2 ] ()
      in
      let job = Job.of_rekey ~channel ~trees msg in
      let loss_of r = Loss_model.mean_loss (Channel.receiver channel r).model in
      let state = Delivery.State.create ~loss_of job in
      List.for_all
        (fun e ->
          let exact = Delivery.State.expected_replications state ~e in
          let bounded = Delivery.State.expected_replications ~bound state ~e in
          if exact < bound then Float.equal bounded exact else bounded >= bound)
        (Delivery.State.pending_entries state))

let test_empty_job_is_free () =
  (* A rekey with no interested receivers on the channel costs nothing. *)
  let channel =
    Channel.create ~rng:(Prng.create 35) [ (999, Loss_model.bernoulli 0.1) ]
  in
  let job = Job.Private.create ~channel ~entries:[||] ~interest:[| [] |] in
  List.iter
    (fun (name, deliver) ->
      let o : Delivery.outcome = deliver ~channel job in
      Alcotest.(check int) (name ^ ": no packets") 0 o.packets;
      Alcotest.(check int) (name ^ ": nothing undelivered") 0 o.undelivered)
    transports

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_transport"
    [
      ( "job",
        [
          Alcotest.test_case "interest matches receivers" `Quick test_job_interest_matches_receivers;
          Alcotest.test_case "interest is path membership" `Quick test_job_interest_is_path;
          Alcotest.test_case "bad interest rejected" `Quick test_job_rejects_bad_interest;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "pack basic" `Quick test_pack_basic;
          Alcotest.test_case "pack edge cases" `Quick test_pack_empty_and_errors;
          Alcotest.test_case "E[M] matches analytic" `Quick test_expected_replications_matches_analytic;
          Alcotest.test_case "E[M] edge cases" `Quick test_expected_replications_empty;
        ]
        @ qsuite [ prop_pack_preserves_copies ] );
      ( "wka_bkr",
        [
          Alcotest.test_case "lossless single round" `Quick test_wka_lossless_single_round;
          Alcotest.test_case "lossy completes" `Quick test_wka_lossy_completes;
          Alcotest.test_case "no naive flooding" `Quick test_wka_weights_favor_valuable_keys;
          Alcotest.test_case "config validation" `Quick test_wka_config_validation;
          Alcotest.test_case "matches seed reference" `Quick test_wka_matches_reference;
        ]
        @ qsuite [ prop_wka_matches_reference ]
        @ [
            Alcotest.test_case "loss-1 receiver: bounded E[M], same weights" `Quick
              test_wka_black_hole_bounded;
          ]
        @ qsuite [ prop_bounded_em ] );
      ( "multi_send",
        [
          Alcotest.test_case "fixed replication" `Quick test_multi_send_replicates;
          Alcotest.test_case "wasteful vs WKA-BKR" `Quick test_multi_send_wasteful_vs_wka;
        ] );
      ( "proactive_fec",
        [
          Alcotest.test_case "lossless" `Quick test_fec_lossless;
          Alcotest.test_case "lossy completes" `Quick test_fec_lossy_completes;
          Alcotest.test_case "zero proactivity" `Quick test_fec_zero_proactivity;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "round limit reported" `Quick test_round_limit_reported;
          Alcotest.test_case "empty job is free" `Quick test_empty_job_is_free;
        ] );
      ( "properties",
        qsuite [ prop_all_transports_deliver; prop_deterministic_given_seed ] );
    ]
