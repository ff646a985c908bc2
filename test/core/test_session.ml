open Gkm

let base =
  {
    Session.default_config with
    n_target = 200;
    horizon = 1200.0;
    org = Organization.Scheme_cfg { Scheme.kind = Tt; degree = 4; s_period = 5; seed = 3 };
  }

let test_session_runs_verified () =
  let r = Session.run base in
  Alcotest.(check int) "intervals" 20 r.intervals;
  Alcotest.(check bool) "rekeyed most intervals" true (r.rekeys >= 15);
  Alcotest.(check bool) "verification passed" true r.verified;
  Alcotest.(check bool)
    (Printf.sprintf "steady size %.0f near 200" r.mean_size)
    true
    (abs_float (r.mean_size -. 200.0) < 60.0);
  Alcotest.(check bool) "delivery happened" true (r.mean_keys_sent >= r.mean_keys)

let test_session_all_scheme_kinds () =
  List.iter
    (fun kind ->
      let r =
        Session.run
          {
            base with
            org = Organization.Scheme_cfg { Scheme.kind; degree = 4; s_period = 5; seed = 3 };
            horizon = 600.0;
            seed = 4;
          }
      in
      Alcotest.(check bool)
        (Scheme.kind_name kind ^ " verified")
        true r.verified)
    Scheme.all_kinds

let test_session_without_delivery () =
  let r = Session.run { base with deliver = false; horizon = 600.0 } in
  Alcotest.(check bool) "verified" true r.verified;
  Alcotest.(check (float 0.0)) "no transport stats" 0.0 r.mean_keys_sent;
  Alcotest.(check int) "no deadline misses" 0 r.deadline_misses

let test_session_deadline_misses_under_slow_rtt () =
  (* With an absurd 30 s round-trip and lossy receivers, multi-round
     deliveries must blow the 60 s deadline at least once. *)
  let r =
    Session.run
      { base with rtt = 30.0; ph = 0.35; loss_alpha = 0.5; horizon = 900.0; seed = 5 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "misses %d > 0" r.deadline_misses)
    true (r.deadline_misses > 0);
  Alcotest.(check bool) "still verified (delivery completes eventually)" true r.verified

let test_session_partition_beats_baseline () =
  (* The headline result, measured on the full stack: with a
     short-heavy audience the TT scheme moves fewer keys per interval
     than the one-keytree baseline. *)
  let run kind =
    Session.run
      {
        base with
        n_target = 300;
        alpha_duration = 0.9;
        ms = 120.0;
        horizon = 2400.0;
        deliver = false;
        org = Organization.Scheme_cfg { Scheme.kind; degree = 4; s_period = 5; seed = 3 };
        seed = 6;
      }
  in
  let one = run Scheme.One_keytree and tt = run Scheme.Tt in
  Alcotest.(check bool) "one verified" true one.verified;
  Alcotest.(check bool) "tt verified" true tt.verified;
  Alcotest.(check bool)
    (Printf.sprintf "TT %.1f < one-keytree %.1f keys/interval" tt.mean_keys one.mean_keys)
    true
    (tt.mean_keys < one.mean_keys)

let test_session_validation () =
  (match Session.run { base with tp = 0.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tp = 0 accepted");
  match Session.run { base with alpha_duration = 1.5 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha > 1 accepted"

let test_session_deterministic () =
  (* Same seed, same configuration: identical metrics, including the
     transport's randomized delivery. *)
  let run () =
    let r = Session.run { base with horizon = 600.0 } in
    (r.rekeys, r.mean_keys, r.mean_keys_sent, r.mean_rounds, r.deadline_misses)
  in
  Alcotest.(check bool) "bit-identical metrics" true (run () = run ())

let test_session_empty_group () =
  let r = Session.run { base with n_target = 0; horizon = 300.0 } in
  Alcotest.(check bool) "verified trivially" true r.verified

let () =
  Alcotest.run "gkm_session"
    [
      ( "session",
        [
          Alcotest.test_case "runs verified" `Quick test_session_runs_verified;
          Alcotest.test_case "all scheme kinds" `Quick test_session_all_scheme_kinds;
          Alcotest.test_case "without delivery" `Quick test_session_without_delivery;
          Alcotest.test_case "deadline misses" `Quick test_session_deadline_misses_under_slow_rtt;
          Alcotest.test_case "partition beats baseline" `Slow test_session_partition_beats_baseline;
          Alcotest.test_case "validation" `Quick test_session_validation;
          Alcotest.test_case "deterministic" `Quick test_session_deterministic;
          Alcotest.test_case "empty group" `Quick test_session_empty_group;
        ] );
    ]
