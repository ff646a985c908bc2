module Fault = Gkm_fault.Fault
module Resync = Gkm_transport.Resync
module Prng = Gkm_crypto.Prng

let plan_of s =
  match Fault.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* ------------------------------------------------------------------ *)
(* Plan syntax                                                         *)

let test_parse_roundtrip () =
  let s =
    "crash@3;loss@120-300:0.3:1,2;partition@10-20:*;drop@1:5;delay@2:7:3;corrupt@7;desync@5:3"
  in
  let p = plan_of s in
  Alcotest.(check string) "print . parse = id" s (Fault.to_string p);
  match Fault.of_string (Fault.to_string p) with
  | Ok p' -> Alcotest.(check bool) "parse . print = id" true (p = p')
  | Error e -> Alcotest.fail e

let test_parse_empty () =
  Alcotest.(check bool) "empty string" true (plan_of "" = []);
  Alcotest.(check bool) "stray separators" true (plan_of " ; ; " = [])

let test_parse_rejects () =
  List.iter
    (fun s ->
      match Fault.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "crash";             (* no @ *)
      "crash@x";           (* non-integer interval *)
      "crash@0";           (* interval < 1 *)
      "loss@300-120:0.3";  (* empty window *)
      "loss@0-10:1.5";     (* rate outside [0, 1] *)
      "loss@0-10";         (* missing rate *)
      "partition@0-10";    (* missing target *)
      "partition@0-10:a,b";
      "delay@2:7:0";       (* delay < 1 *)
      "warp@3";            (* unknown kind *)
    ]

(* A generator over single faults, used to round-trip arbitrary plans. *)
let fault_gen =
  QCheck.Gen.(
    let interval = int_range 1 50 in
    let member = int_range 0 99 in
    let window =
      map2 (fun a b -> (float_of_int a, float_of_int (a + b))) (int_range 0 500) (int_range 1 500)
    in
    let target =
      oneof
        [ return Fault.All; map (fun ms -> Fault.Members ms) (list_size (int_range 1 4) member) ]
    in
    oneof
      [
        map (fun interval -> Fault.Crash { interval }) interval;
        map3
          (fun (from_t, until_t) extra target ->
            Fault.Burst_loss { from_t; until_t; extra = float_of_int extra /. 10.0; target })
          window (int_range 0 10) target;
        map2
          (fun (from_t, until_t) target -> Fault.Partition { from_t; until_t; target })
          window target;
        map2 (fun interval member -> Fault.Drop_unicast { interval; member }) interval member;
        map3
          (fun interval member by -> Fault.Delay_unicast { interval; member; by })
          interval member (int_range 1 5);
        map (fun interval -> Fault.Corrupt { interval }) interval;
        map2 (fun interval member -> Fault.Desync { interval; member }) interval member;
      ])

let prop_plan_roundtrip =
  QCheck.Test.make ~name:"plan syntax round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) fault_gen))
    (fun plan ->
      match Fault.of_string (Fault.to_string plan) with
      | Ok plan' -> plan = plan'
      | Error e -> QCheck.Test.fail_reportf "re-parse of %S: %s" (Fault.to_string plan) e)

(* ------------------------------------------------------------------ *)
(* Injector queries                                                    *)

let test_injector_rejects_invalid () =
  Alcotest.check_raises "invalid plan"
    (Invalid_argument "Fault.Injector: fault: interval must be >= 1") (fun () ->
      ignore (Fault.Injector.create [ Fault.Crash { interval = 0 } ]))

let test_injector_queries () =
  let fi =
    Fault.Injector.create
      (plan_of "crash@3;loss@100-200:0.5:7;partition@150-160:9;drop@2:5;delay@4:6:2;corrupt@8;desync@5:3;desync@5:1")
  in
  Alcotest.(check bool) "crash at 3" true (Fault.Injector.crash_at fi ~interval:3);
  Alcotest.(check bool) "no crash at 4" false (Fault.Injector.crash_at fi ~interval:4);
  (* Burst loss composes with the base rate, only for the target. *)
  Alcotest.(check (float 1e-9)) "composed rate" 0.6
    (Fault.Injector.loss_rate fi ~time:150.0 ~member:7 0.2);
  Alcotest.(check (float 1e-9)) "untargeted member keeps base" 0.2
    (Fault.Injector.loss_rate fi ~time:150.0 ~member:8 0.2);
  (* Windows are half-open: active at from_t, inactive at until_t. *)
  Alcotest.(check (float 1e-9)) "active at window open" 0.5
    (Fault.Injector.loss_rate fi ~time:100.0 ~member:7 0.0);
  Alcotest.(check (float 1e-9)) "inactive at window close" 0.0
    (Fault.Injector.loss_rate fi ~time:200.0 ~member:7 0.0);
  (* Partition dominates everything. *)
  Alcotest.(check (float 1e-9)) "partition is total loss" 1.0
    (Fault.Injector.loss_rate fi ~time:155.0 ~member:9 0.0);
  Alcotest.(check bool) "partitioned" true
    (Fault.Injector.partitioned fi ~time:155.0 ~member:9);
  Alcotest.(check bool) "not partitioned outside window" false
    (Fault.Injector.partitioned fi ~time:160.0 ~member:9);
  Alcotest.(check bool) "channel faulty inside window" true
    (Fault.Injector.channel_faulty fi ~time:155.0);
  Alcotest.(check bool) "channel clean outside windows" false
    (Fault.Injector.channel_faulty fi ~time:250.0);
  Alcotest.(check bool) "drop" true (Fault.Injector.dropped_unicast fi ~interval:2 ~member:5);
  Alcotest.(check bool) "no drop for other member" false
    (Fault.Injector.dropped_unicast fi ~interval:2 ~member:6);
  Alcotest.(check (option int)) "delay" (Some 2)
    (Fault.Injector.delayed_unicast fi ~interval:4 ~member:6);
  Alcotest.(check (option int)) "no delay" None
    (Fault.Injector.delayed_unicast fi ~interval:5 ~member:6);
  Alcotest.(check bool) "corrupt" true (Fault.Injector.corrupt_at fi ~interval:8);
  Alcotest.(check (list int)) "desyncs sorted" [ 1; 3 ]
    (Fault.Injector.desyncs_at fi ~interval:5);
  Alcotest.(check (list int)) "no desyncs" [] (Fault.Injector.desyncs_at fi ~interval:6)

let test_injector_record () =
  let fi = Fault.Injector.create [] in
  Alcotest.(check int) "starts at zero" 0 (Fault.Injector.injected fi);
  Fault.Injector.record fi ~time:1.0 ~kind:"crash" ();
  Fault.Injector.record fi ~time:2.0 ~kind:"desync" ~member:3 ();
  Alcotest.(check int) "counts" 2 (Fault.Injector.injected fi)

let test_injector_loss_model () =
  let fi = Fault.Injector.create (plan_of "loss@0-10:0.5") in
  let base = Gkm_net.Loss_model.bernoulli 0.2 in
  let m = Fault.Injector.loss_model fi ~time:5.0 ~member:1 base in
  Alcotest.(check (float 1e-9)) "composed mean" 0.6 (Gkm_net.Loss_model.mean_loss m);
  let m' = Fault.Injector.loss_model fi ~time:20.0 ~member:1 base in
  Alcotest.(check bool) "identity outside window" true (m' == base)

(* ------------------------------------------------------------------ *)
(* Resync exchange                                                     *)

let test_resync_lossless () =
  match Resync.request ~rng:(Prng.create 1) ~loss_at:(fun _ -> 0.0) () with
  | Resync.Synced { attempts; latency } ->
      Alcotest.(check int) "one attempt" 1 attempts;
      Alcotest.(check (float 1e-9)) "latency is one rtt" Resync.default.rtt latency
  | Gave_up _ -> Alcotest.fail "gave up on a lossless path"

let test_resync_gives_up () =
  match Resync.request ~rng:(Prng.create 2) ~loss_at:(fun _ -> 1.0) () with
  | Resync.Gave_up { attempts; latency } ->
      Alcotest.(check int) "exhausts budget" Resync.default.max_attempts attempts;
      Alcotest.(check bool) "latency covers backoffs" true
        (latency > Resync.default.rtt *. float_of_int Resync.default.max_attempts)
  | Synced _ -> Alcotest.fail "synced through total loss"

let test_resync_recovers_after_window () =
  (* Total loss for the first 5 virtual seconds, clean afterwards: the
     exchange must survive the window and sync on a later attempt. *)
  match
    Resync.request ~rng:(Prng.create 3)
      ~loss_at:(fun elapsed -> if elapsed < 5.0 then 1.0 else 0.0)
      ()
  with
  | Resync.Synced { attempts; _ } ->
      Alcotest.(check bool) "took more than one attempt" true (attempts > 1)
  | Gave_up _ -> Alcotest.fail "gave up after the window closed"

let test_resync_deterministic () =
  let run seed =
    Resync.request ~rng:(Prng.create seed) ~loss_at:(fun _ -> 0.7) ()
  in
  Alcotest.(check bool) "same seed, same outcome" true (run 42 = run 42);
  (* Distinct seeds must disagree for some pair, or the jitter stream
     is not actually consumed. *)
  let outcomes = List.map run [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool) "seeds differentiate outcomes" true
    (List.exists (fun o -> o <> List.hd outcomes) outcomes)

let test_resync_validates_config () =
  List.iter
    (fun config ->
      match Resync.request ~config ~rng:(Prng.create 1) ~loss_at:(fun _ -> 0.0) () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid config accepted")
    [
      { Resync.default with max_attempts = 0 };
      { Resync.default with rtt = 0.0 };
      { Resync.default with base_delay = -1.0 };
      { Resync.default with jitter = 1.0 };
    ]

let prop_resync_fixed_draws =
  (* The exchange consumes a fixed number of PRNG draws regardless of
     outcome: after two identically-seeded requests against different
     loss rates, the two streams are in the same state iff the attempt
     counts match. Weaker but checkable: a clone of the RNG run against
     the same rate always lands in the same state. *)
  QCheck.Test.make ~name:"resync is deterministic in (seed, loss)" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 0 10))
    (fun (seed, tenths) ->
      let p = float_of_int tenths /. 10.0 in
      let r1 = Resync.request ~rng:(Prng.create seed) ~loss_at:(fun _ -> p) () in
      let r2 = Resync.request ~rng:(Prng.create seed) ~loss_at:(fun _ -> p) () in
      r1 = r2)

let () =
  Alcotest.run "gkm_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "syntax round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "empty plans" `Quick test_parse_empty;
          Alcotest.test_case "rejections" `Quick test_parse_rejects;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_plan_roundtrip ] );
      ( "injector",
        [
          Alcotest.test_case "invalid plan rejected" `Quick test_injector_rejects_invalid;
          Alcotest.test_case "queries" `Quick test_injector_queries;
          Alcotest.test_case "record counts" `Quick test_injector_record;
          Alcotest.test_case "loss model hook" `Quick test_injector_loss_model;
        ] );
      ( "resync",
        [
          Alcotest.test_case "lossless sync" `Quick test_resync_lossless;
          Alcotest.test_case "gives up under total loss" `Quick test_resync_gives_up;
          Alcotest.test_case "recovers after fault window" `Quick
            test_resync_recovers_after_window;
          Alcotest.test_case "deterministic" `Quick test_resync_deterministic;
          Alcotest.test_case "config validation" `Quick test_resync_validates_config;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_resync_fixed_draws ] );
    ]
