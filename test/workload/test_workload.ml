module Prng = Gkm_crypto.Prng
open Gkm_workload

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let cfg = Membership.of_params ~n_target:500 ~alpha:0.8 ~ms:180.0 ~ml:10800.0 ~tp:60.0

let test_membership_steady_state_size () =
  (* Track population over a long horizon: it should hover near the
     target. *)
  let rng = Prng.create 4 in
  let events = Membership.generate cfg ~rng ~horizon:7200.0 in
  let current = ref 0 and min_pop = ref max_int and max_pop = ref 0 in
  List.iter
    (fun (e : Membership.event) ->
      (match e.kind with `Join -> incr current | `Depart -> decr current);
      if e.time > 1800.0 then begin
        if !current < !min_pop then min_pop := !current;
        if !current > !max_pop then max_pop := !current
      end)
    events;
  Alcotest.(check bool)
    (Printf.sprintf "population stays in [350, 650], saw [%d, %d]" !min_pop !max_pop)
    true
    (!min_pop > 350 && !max_pop < 650)

let test_membership_join_rate () =
  let rng = Prng.create 5 in
  let horizon = 6000.0 in
  let events = Membership.generate cfg ~rng ~horizon in
  let arrivals =
    List.length
      (List.filter
         (fun (e : Membership.event) -> e.kind = `Join && e.time > 0.0)
         events)
  in
  let expected = Membership.joins_per_interval cfg *. horizon /. cfg.tp in
  let ratio = float_of_int arrivals /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "arrivals %d vs expected %.0f" arrivals expected)
    true
    (ratio > 0.85 && ratio < 1.15)

let test_membership_events_sorted_and_paired () =
  let rng = Prng.create 6 in
  let events = Membership.generate cfg ~rng ~horizon:1200.0 in
  let rec sorted = function
    | (a : Membership.event) :: (b :: _ as tl) -> a.time <= b.time && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted events);
  (* Every departure has a prior join of the same member. *)
  let joined = Hashtbl.create 64 in
  List.iter
    (fun (e : Membership.event) ->
      match e.kind with
      | `Join ->
          Alcotest.(check bool) "no double join" false (Hashtbl.mem joined e.member);
          Hashtbl.add joined e.member ()
      | `Depart ->
          Alcotest.(check bool)
            (Printf.sprintf "member %d departed after joining" e.member)
            true (Hashtbl.mem joined e.member))
    events

let test_membership_intervals_bucketing () =
  let rng = Prng.create 7 in
  let buckets = Membership.intervals cfg ~rng ~n_intervals:20 in
  Alcotest.(check int) "bucket count" 20 (List.length buckets);
  (* Bucket 0 contains the seeded population. *)
  (match buckets with
  | (joins0, _) :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "initial population %d near 500" (List.length joins0))
        true
        (List.length joins0 >= 450 && List.length joins0 <= 560)
  | [] -> Alcotest.fail "no buckets");
  (* No member departs in a bucket before the bucket it joined in. *)
  let join_bucket = Hashtbl.create 64 in
  List.iteri
    (fun i (joins, _) -> List.iter (fun (m, _) -> Hashtbl.replace join_bucket m i) joins)
    buckets;
  List.iteri
    (fun i (_, departs) ->
      List.iter
        (fun m ->
          match Hashtbl.find_opt join_bucket m with
          | Some j ->
              Alcotest.(check bool)
                (Printf.sprintf "member %d: join bucket %d <= depart bucket %d" m j i)
                true (j <= i)
          | None -> Alcotest.fail "departure without join")
        departs)
    buckets

let test_membership_class_mix () =
  let rng = Prng.create 8 in
  let events = Membership.generate cfg ~rng ~horizon:6000.0 in
  let arrivals =
    List.filter (fun (e : Membership.event) -> e.kind = `Join && e.time > 0.0) events
  in
  let short =
    List.length (List.filter (fun (e : Membership.event) -> e.cls = Membership.Short) arrivals)
  in
  let frac = float_of_int short /. float_of_int (List.length arrivals) in
  Alcotest.(check bool)
    (Printf.sprintf "short fraction of arrivals %.3f near alpha=0.8" frac)
    true
    (abs_float (frac -. 0.8) < 0.05)

let prop_membership_determinism =
  QCheck.Test.make ~name:"generation deterministic in the seed" ~count:20
    QCheck.(int_range 0 500)
    (fun seed ->
      let run () =
        Membership.generate cfg ~rng:(Prng.create seed) ~horizon:600.0
        |> List.map (fun (e : Membership.event) -> (e.time, e.member, e.kind))
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Fit (Section 3.4 adaptive estimation)                               *)

let synth_durations ~n ~alpha ~ms ~ml ~seed =
  let rng = Prng.create seed in
  List.init n (fun _ ->
      if Prng.bernoulli rng alpha then Prng.exponential rng ~mean:ms
      else Prng.exponential rng ~mean:ml)

let test_fit_recovers_mixture () =
  let durations = synth_durations ~n:20_000 ~alpha:0.8 ~ms:180.0 ~ml:10800.0 ~seed:9 in
  let m = Fit.em durations in
  Alcotest.(check bool)
    (Printf.sprintf "alpha %.3f near 0.8" m.alpha)
    true
    (abs_float (m.alpha -. 0.8) < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "ms %.1f near 180" m.ms)
    true
    (abs_float (m.ms -. 180.0) /. 180.0 < 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "ml %.0f near 10800" m.ml)
    true
    (abs_float (m.ml -. 10800.0) /. 10800.0 < 0.15)

let test_fit_orders_components () =
  let durations = synth_durations ~n:5_000 ~alpha:0.2 ~ms:60.0 ~ml:6000.0 ~seed:10 in
  let m = Fit.em durations in
  Alcotest.(check bool) "ms <= ml" true (m.ms <= m.ml)

(* The mixture log-likelihood EM climbs. *)
let log_likelihood (m : Fit.mixture) durations =
  let density mean x = exp (-.x /. mean) /. mean in
  List.fold_left
    (fun acc x -> acc +. log (max 1e-300 ((m.alpha *. density m.ms x) +. ((1.0 -. m.alpha) *. density m.ml x))))
    0.0 durations

let test_fit_likelihood_improves () =
  let durations = synth_durations ~n:3_000 ~alpha:0.7 ~ms:100.0 ~ml:5000.0 ~seed:11 in
  let fitted = Fit.em durations in
  let bad = { Fit.alpha = 0.5; ms = 1000.0; ml = 1001.0 } in
  Alcotest.(check bool) "fitted beats a bad model" true
    (log_likelihood fitted durations > log_likelihood bad durations)

let test_fit_validation () =
  (match Fit.em [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty input accepted");
  match Fit.em [ 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single observation accepted"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_workload"
    [
      ( "membership",
        [
          Alcotest.test_case "steady-state size" `Quick test_membership_steady_state_size;
          Alcotest.test_case "join rate" `Quick test_membership_join_rate;
          Alcotest.test_case "sorted and paired" `Quick test_membership_events_sorted_and_paired;
          Alcotest.test_case "interval bucketing" `Quick test_membership_intervals_bucketing;
          Alcotest.test_case "class mix" `Quick test_membership_class_mix;
        ]
        @ qsuite [ prop_membership_determinism ] );
      ( "fit",
        [
          Alcotest.test_case "recovers mixture" `Quick test_fit_recovers_mixture;
          Alcotest.test_case "orders components" `Quick test_fit_orders_components;
          Alcotest.test_case "likelihood improves" `Quick test_fit_likelihood_improves;
          Alcotest.test_case "validation" `Quick test_fit_validation;
        ] );
    ]
