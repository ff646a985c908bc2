(* Integration: a full engine-driven session with observability on
   must (a) leave the simulation bit-identical to an observability-off
   run, and (b) populate the hot-path metrics and the event journal. *)

open Gkm
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Journal = Gkm_obs.Journal

let cfg =
  {
    Session.default_config with
    n_target = 120;
    horizon = 600.0;
    org = Organization.Scheme_cfg { Scheme.kind = Tt; degree = 4; s_period = 5; seed = 3 };
  }

let scheme_org kind =
  Organization.Scheme_cfg { Scheme.kind; degree = 4; s_period = 5; seed = 3 }

let run_with ~obs cfg =
  Metrics.reset Metrics.default;
  Journal.clear Journal.default;
  Exported.with_obs obs (fun () -> Session.run cfg)

let counter = Exported.counter ~registry:Metrics.default
let field name key = Exported.field Metrics.default name key

let test_instrumentation_is_invisible () =
  let off = run_with ~obs:false cfg in
  let on = run_with ~obs:true cfg in
  Alcotest.(check bool) "identical Session.result" true (off = on);
  (* Also across schemes and with delivery off. *)
  List.iter
    (fun cfg ->
      let off = run_with ~obs:false cfg and on = run_with ~obs:true cfg in
      Alcotest.(check bool) "identical result" true (off = on))
    [
      { cfg with org = scheme_org Scheme.One_keytree };
      { cfg with org = scheme_org Scheme.Qt };
      { cfg with deliver = false };
    ]

let test_session_populates_metrics () =
  let r = run_with ~obs:true cfg in
  Alcotest.(check bool) "sanity: session verified" true r.verified;
  Alcotest.(check bool) "keys encrypted counted" true (counter "rekey.keys_encrypted" > 0);
  Alcotest.(check int) "rekeys counted" r.rekeys (counter "rekey.count");
  Alcotest.(check bool) "delivery rounds counted" true (counter "wka_bkr.rounds" > 0);
  Alcotest.(check bool) "engine events counted" true (counter "sim.events_dispatched" > 0);
  Alcotest.(check int) "intervals counted" r.intervals (counter "session.intervals");
  Alcotest.(check int) "one latency sample per rekeying" r.rekeys
    (Exported.count "session.rekey_latency_s");
  Alcotest.(check bool) "latency positive" true (field "session.rekey_latency_s" "min" > 0.0);
  Alcotest.(check int) "one span per interval" r.intervals (Exported.count "span.rekey.interval");
  (* A banded organization rekeys one scheme per band each interval,
     yet counts one group rekey, and its band gauges add up to the
     group. *)
  List.iter
    (fun sel ->
      let r =
        run_with ~obs:true
          { cfg with org = Result.get_ok (Organization.spec_of_string ~seed:3 sel) }
      in
      Alcotest.(check int) (sel ^ ": rekeys counted") r.rekeys (counter "rekey.count");
      let band b = field (Printf.sprintf "rekey.band_size.%d" b) "value" in
      Alcotest.(check (float 0.0)) (sel ^ ": band gauges sum to the group")
        (float_of_int r.final_size) (band 0 +. band 1))
    [ "composed"; "loss:0.05" ]

let test_session_journals_every_interval () =
  let r = run_with ~obs:true cfg in
  let events = Journal.events Journal.default in
  let count name =
    List.length (List.filter (fun (e : Journal.event) -> e.name = name) events)
  in
  Alcotest.(check int) "interval.start per interval" r.intervals (count "interval.start");
  Alcotest.(check int) "interval.end per interval" r.intervals (count "interval.end");
  (* Every rekeying interval's end event carries the delivery fields. *)
  let ends_with_delivery =
    List.filter
      (fun (e : Journal.event) ->
        e.name = "interval.end" && List.mem_assoc "rounds" e.fields)
      events
  in
  Alcotest.(check int) "delivery fields on every rekeying" r.rekeys
    (List.length ends_with_delivery);
  List.iter
    (fun (e : Journal.event) ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "field %s present" k)
            true (List.mem_assoc k e.fields))
        [ "rounds"; "packets"; "keys_sent"; "nacks"; "bytes_sent"; "latency_s" ])
    ends_with_delivery;
  (* Journal lines are one object per line. *)
  List.iter
    (fun ev ->
      let l = Journal.to_jsonl_line ev in
      Alcotest.(check bool) "jsonl object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}' && not (String.contains l '\n')))
    events

let test_disabled_run_records_nothing () =
  let _ = run_with ~obs:false cfg in
  Alcotest.(check int) "no keys counted" 0 (counter "rekey.keys_encrypted");
  Alcotest.(check int) "no journal events" 0 (List.length (Journal.events Journal.default))

let () =
  Alcotest.run "gkm_obs_session"
    [
      ( "integration",
        [
          Alcotest.test_case "instrumentation invisible" `Quick test_instrumentation_is_invisible;
          Alcotest.test_case "metrics populated" `Quick test_session_populates_metrics;
          Alcotest.test_case "journal per interval" `Quick test_session_journals_every_interval;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_run_records_nothing;
        ] );
    ]
