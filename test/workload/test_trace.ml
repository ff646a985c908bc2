module Prng = Gkm_crypto.Prng
open Gkm_workload

let cfg = Membership.of_params ~n_target:100 ~alpha:0.7 ~ms:120.0 ~ml:3600.0 ~tp:60.0

let sample_events seed =
  Membership.generate cfg ~rng:(Prng.create seed) ~horizon:1800.0

let event_key (e : Membership.event) = (e.time, e.member, e.cls, e.kind)

let test_csv_roundtrip () =
  let events = sample_events 1 in
  match Trace.of_csv (Trace.to_csv events) with
  | Ok parsed ->
      Alcotest.(check int) "count" (List.length events) (List.length parsed);
      List.iter2
        (fun a b ->
          if event_key a <> event_key b then
            Alcotest.failf "event mismatch at t=%f member=%d" a.Membership.time a.member)
        (List.stable_sort (fun a b -> compare (event_key a) (event_key b)) events)
        (List.stable_sort (fun a b -> compare (event_key a) (event_key b)) parsed)
  | Error e -> Alcotest.fail e

let test_csv_errors () =
  (match Trace.of_csv "1.0,2,s\n" with
  | Error msg -> Alcotest.(check bool) "mentions line" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "short row accepted");
  (match Trace.of_csv "abc,2,s,join\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad float accepted");
  match Trace.of_csv "1.0,2,x,join\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad class accepted"

let test_csv_tolerates_blank_and_header () =
  let text = "time,member,class,kind\n\n10.5,3,l,join\n\n20.0,3,l,depart\n" in
  match Trace.of_csv text with
  | Ok [ a; b ] ->
      Alcotest.(check int) "member" 3 a.Membership.member;
      Alcotest.(check bool) "kinds" true (a.kind = `Join && b.kind = `Depart)
  | Ok _ -> Alcotest.fail "wrong event count"
  | Error e -> Alcotest.fail e

let test_durations_and_censoring () =
  let mk time member cls kind = { Membership.time; member; cls; kind } in
  let events =
    [
      mk 0.0 1 Membership.Short `Join;
      mk 0.0 2 Membership.Long `Join;
      mk 5.0 1 Membership.Short `Depart;
      mk 7.0 3 Membership.Short `Join;
    ]
  in
  Alcotest.(check (list (float 1e-9))) "durations" [ 5.0 ] (Trace.durations events);
  Alcotest.(check int) "censored" 2 (Trace.censored events)

(* A trace batched into rekey intervals of length [tp]: for each
   interval, the joins (with class) and departures inside it; the
   buckets cover the last event. *)
let bucket ~tp events =
  let last = List.fold_left (fun acc (e : Membership.event) -> max acc e.time) 0.0 events in
  let n = 1 + int_of_float (last /. tp) in
  let buckets = Array.make n ([], []) in
  List.iter
    (fun (e : Membership.event) ->
      let idx = min (n - 1) (int_of_float (e.time /. tp)) in
      let joins, departs = buckets.(idx) in
      match e.kind with
      | `Join -> buckets.(idx) <- ((e.member, e.cls) :: joins, departs)
      | `Depart -> buckets.(idx) <- (joins, e.member :: departs))
    events;
  Array.to_list buckets

let test_bucket_matches_membership_intervals () =
  (* The generator's own bucketing must agree with its event trace
     bucketed by time. *)
  let rng = Prng.create 2 in
  let n = 10 in
  let direct = Membership.intervals cfg ~rng ~n_intervals:n in
  let rng = Prng.create 2 in
  let events = Membership.generate cfg ~rng ~horizon:(float_of_int n *. cfg.tp) in
  let from_trace = bucket ~tp:cfg.tp events in
  (* Same totals interval by interval (the trace may have one extra
     trailing bucket when the last event lands exactly on the horizon). *)
  List.iteri
    (fun i (joins, departs) ->
      if i < List.length from_trace - 1 || i < n - 1 then begin
        let joins', departs' = List.nth from_trace i in
        Alcotest.(check int) (Printf.sprintf "joins bucket %d" i) (List.length joins)
          (List.length joins');
        Alcotest.(check int) (Printf.sprintf "departs bucket %d" i) (List.length departs)
          (List.length departs')
      end)
    direct

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip across seeds" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let events = sample_events seed in
      match Trace.of_csv (Trace.to_csv events) with
      | Ok parsed -> List.length parsed = List.length events
      | Error _ -> false)

let () =
  Alcotest.run "gkm_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv errors" `Quick test_csv_errors;
          Alcotest.test_case "blank lines and header" `Quick test_csv_tolerates_blank_and_header;
          Alcotest.test_case "durations and censoring" `Quick test_durations_and_censoring;
          Alcotest.test_case "bucket matches generator" `Quick test_bucket_matches_membership_intervals;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_csv_roundtrip ] );
    ]
