open Gkm_sim

let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Mathx                                                               *)

(* [ln_choose n k] is lgamma (n + 1) - lgamma (k + 1) - lgamma (n - k + 1),
   so known binomials pin the log-gamma values underneath. *)
let test_lgamma_known () =
  (* Gamma(n) = (n-1)! *)
  Alcotest.(check (float 1e-10)) "C(4,1): lgamma 5 - lgamma 4 = ln 4" (log 4.0)
    (Mathx.ln_choose 4.0 1.0);
  Alcotest.(check (float 1e-8)) "C(10,5): lgamma 11 = ln 10!" (log 252.0) (Mathx.ln_choose 10.0 5.0);
  (* Gamma(3/2) = sqrt(pi) / 2, so C(1, 1/2) = 4 / pi. *)
  Alcotest.(check (float 1e-10)) "C(1, 1/2) = 4 / pi" (log (4.0 /. Float.pi))
    (Mathx.ln_choose 1.0 0.5)

let test_ln_choose () =
  Alcotest.(check (float 1e-9)) "C(5,2) = 10" (log 10.0) (Mathx.ln_choose 5.0 2.0);
  Alcotest.(check (float 1e-9)) "C(10,0) = 1" 0.0 (Mathx.ln_choose 10.0 0.0);
  Alcotest.(check (float 1e-9)) "C(10,10) = 1" 0.0 (Mathx.ln_choose 10.0 10.0);
  Alcotest.(check (float 1e-6)) "C(52,5) = 2598960" (log 2598960.0) (Mathx.ln_choose 52.0 5.0);
  Alcotest.(check bool) "C(3,5) = 0" true (Mathx.ln_choose 3.0 5.0 = neg_infinity)

let test_choose_ratio () =
  (* Probability that 2 draws from 10 miss a set of 3:
     C(7,2)/C(10,2) = 21/45. *)
  Alcotest.(check (float 1e-9))
    "hypergeometric miss" (21.0 /. 45.0)
    (Mathx.choose_ratio ~total:10.0 ~excluded:3.0 ~draws:2.0);
  checkf "no draws" 1.0 (Mathx.choose_ratio ~total:10.0 ~excluded:3.0 ~draws:0.0);
  checkf "nothing excluded" 1.0 (Mathx.choose_ratio ~total:10.0 ~excluded:0.0 ~draws:5.0);
  checkf "too many draws" 0.0 (Mathx.choose_ratio ~total:10.0 ~excluded:3.0 ~draws:8.0)

let prop_choose_ratio_bounds =
  QCheck.Test.make ~name:"choose_ratio in [0,1] and monotone in draws" ~count:300
    QCheck.(triple (int_range 1 1000) (int_range 0 1000) (int_range 0 1000))
    (fun (total, excluded, draws) ->
      let excluded = min excluded total in
      let total = float_of_int total
      and excluded = float_of_int excluded
      and draws = float_of_int draws in
      let r = Mathx.choose_ratio ~total ~excluded ~draws in
      let r' = Mathx.choose_ratio ~total ~excluded ~draws:(draws +. 1.0) in
      r >= 0.0 && r <= 1.0 && r' <= r +. 1e-12)

let prop_lgamma_recurrence =
  (* Gamma(x+1) = x Gamma(x)  =>  ln C(x, 1) = lgamma(x+1) - lgamma(x) = ln x *)
  QCheck.Test.make ~name:"lgamma recurrence" ~count:300
    QCheck.(float_range 1.1 50.0)
    (fun x ->
      let lhs = Mathx.ln_choose x 1.0 and rhs = log x in
      abs_float (lhs -. rhs) < 1e-9 *. (1.0 +. abs_float rhs))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let drain h =
  let rec go acc = match Heap.pop h with Some x -> go (x :: acc) | None -> List.rev acc in
  go []

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check int) "empty" 0 (Heap.length h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (drain h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

(* A heap drained to empty takes new elements again: the engine's and
   the event loop's queues empty and refill over a run. *)
let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 2; 1 ];
  ignore (drain h);
  Alcotest.(check int) "cleared" 0 (Heap.length h);
  List.iter (Heap.push h) [ 7; 6 ];
  Alcotest.(check (list int)) "refilled" [ 6; 7 ] (drain h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list int)
    (fun l ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) l;
      drain h = List.sort compare l)

let remove_one x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: tl when y = x -> List.rev_append acc tl
    | y :: tl -> go (y :: acc) tl
  in
  go [] l

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap pop always yields current min" ~count:200
    QCheck.(list (pair bool int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun (is_pop, v) ->
          if is_pop then begin
            let expected =
              match List.sort compare !model with [] -> None | x :: _ -> Some x
            in
            let got = Heap.pop h in
            (match expected with Some x -> model := remove_one x !model | None -> ());
            got = expected
          end
          else begin
            Heap.push h v;
            model := v :: !model;
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3.0 (fun _ -> log := "c" :: !log);
  Engine.schedule e ~at:1.0 (fun _ -> log := "a" :: !log);
  Engine.schedule e ~at:2.0 (fun _ -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~at:1.0 (fun _ -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 10 then Engine.schedule_after engine ~delay:1.0 tick
  in
  Engine.schedule e ~at:0.0 tick;
  Engine.run e;
  Alcotest.(check int) "self-rescheduling event" 10 !count;
  checkf "clock" 9.0 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun _ -> incr fired);
  Engine.schedule e ~at:5.0 (fun _ -> incr fired);
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only events <= until fire" 1 !fired;
  checkf "clock advanced to until" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fire later" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun _ -> ());
  Engine.run e;
  match Engine.schedule e ~at:1.0 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past must be rejected"

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checkf "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9))
    "variance, through the CI" (1.96 *. sqrt (32.0 /. 7.0 /. 8.0)) (Stats.ci95_halfwidth s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "CI nan" true (Float.is_nan (Stats.ci95_halfwidth s))

let test_sample_quantiles () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  checkf "median" 3.0 (Stats.Sample.quantile s 0.5);
  checkf "q0" 1.0 (Stats.Sample.quantile s 0.0);
  checkf "q1" 5.0 (Stats.Sample.quantile s 1.0);
  checkf "q0.25" 2.0 (Stats.Sample.quantile s 0.25);
  (* Adding after a quantile query must re-sort. *)
  Stats.Sample.add s 0.0;
  checkf "q0 after add" 0.0 (Stats.Sample.quantile s 0.0)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean = naive mean" ~count:300
    QCheck.(list_of_size Gen.(1 -- 100) (float_range (-1000.0) 1000.0))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      abs_float (Stats.mean s -. naive) < 1e-6)

let prop_sample_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 100.0)) (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (l, (q1, q2)) ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) l;
      let lo = min q1 q2 and hi = max q1 q2 in
      Stats.Sample.quantile s lo <= Stats.Sample.quantile s hi +. 1e-9)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_sim"
    [
      ( "mathx",
        [
          Alcotest.test_case "lgamma known values" `Quick test_lgamma_known;
          Alcotest.test_case "ln_choose" `Quick test_ln_choose;
          Alcotest.test_case "choose_ratio" `Quick test_choose_ratio;
        ]
        @ qsuite [ prop_choose_ratio_bounds; prop_lgamma_recurrence ] );
      ( "heap",
        [
          Alcotest.test_case "basic operations" `Quick test_heap_basic;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ]
        @ qsuite [ prop_heap_sorts; prop_heap_interleaved ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "sample quantiles" `Quick test_sample_quantiles;
        ]
        @ qsuite [ prop_stats_mean_matches_naive; prop_sample_quantile_monotone ] );
    ]
