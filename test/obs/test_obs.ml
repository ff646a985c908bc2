module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Span = Gkm_obs.Span
module Journal = Gkm_obs.Journal
module Jsonx = Gkm_obs.Jsonx
module H = Metrics.Histogram

open Exported

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

let test_counter_basics () =
  let reg = Metrics.Private.create () in
  let c = Metrics.Counter.v ~registry:reg "c" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "value" 42 (counter ~registry:reg "c");
  (* Creation is idempotent: same name, same cell. *)
  let c' = Metrics.Counter.v ~registry:reg "c" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "shared" 43 (counter ~registry:reg "c");
  Metrics.reset reg;
  Alcotest.(check int) "reset" 0 (counter ~registry:reg "c")

let test_reset_all () =
  (* reset_all zeroes the default registry but keeps registrations, so
     handles cached in top-level bindings stay valid. *)
  let reg = Metrics.default in
  let c = Metrics.Counter.v "reset_all.probe" in
  let h = Metrics.Histogram.v "reset_all.probe.h" in
  Metrics.Counter.add c 5;
  Metrics.Histogram.observe h 1.0;
  Metrics.reset_all ();
  Alcotest.(check int) "counter zeroed" 0 (counter ~registry:reg "reset_all.probe");
  Alcotest.(check int) "histogram zeroed" 0 (count ~registry:reg "reset_all.probe.h");
  Metrics.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (counter ~registry:reg "reset_all.probe")

let test_kind_clash () =
  let reg = Metrics.Private.create () in
  ignore (Metrics.Counter.v ~registry:reg "x");
  (match Metrics.Gauge.v ~registry:reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gauge under a counter name accepted");
  match Metrics.Histogram.v ~registry:reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histogram under a counter name accepted"

let test_gauge () =
  let reg = Metrics.Private.create () in
  let g = Metrics.Gauge.v ~registry:reg "g" in
  Alcotest.(check (list string)) "unset gauge omitted from export" [] (Metrics.to_jsonl reg);
  Metrics.Gauge.set g 17.0;
  Alcotest.(check (list string))
    "exported once set"
    [ {|{"type":"gauge","name":"g","value":17}|} ]
    (Metrics.to_jsonl reg)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

(* The bucket bound one observation lands under, as the export prints it. *)
let le v =
  let reg = Metrics.Private.create () in
  H.observe (H.v ~registry:reg "b") v;
  let l = Option.get (line reg "b") in
  let k = {|"buckets":[{"le":|} in
  let i = Option.get (find l k) + String.length k in
  String.sub l i (Option.get (find l {|,"count":1}]}|}) - i)

let test_histogram_buckets () =
  (* Exact powers of two sit on their own (inclusive) upper bound. *)
  Alcotest.(check string) "1.0 -> le 1" "1" (le 1.0);
  Alcotest.(check string) "2.0 -> le 2" "2" (le 2.0);
  Alcotest.(check string) "1.5 -> le 2" "2" (le 1.5);
  Alcotest.(check string) "2.0+eps -> le 4" "4" (le 2.000001);
  Alcotest.(check string) "100 -> le 128" "128" (le 100.0);
  Alcotest.(check string) "0.7 -> le 1" "1" (le 0.7);
  (* Underflow and non-positive values land in bucket 0, le 2^-32. *)
  let bucket0 = Jsonx.float (ldexp 1.0 (-32)) in
  Alcotest.(check string) "0 -> bucket 0" bucket0 (le 0.0);
  Alcotest.(check string) "negative -> bucket 0" bucket0 (le (-3.0));
  Alcotest.(check string) "tiny -> bucket 0" bucket0 (le 1e-30);
  (* Overflow clamps into the last bucket, whose bound is infinite. *)
  Alcotest.(check string) "huge -> last bucket, le inf" {|"inf"|} (le 1e300)

let test_histogram_stats () =
  let reg = Metrics.Private.create () in
  let h = H.v ~registry:reg "h" in
  let table () = Format.asprintf "%a" Metrics.pp_table reg in
  Alcotest.(check bool) "empty" true (find (table ()) "n=0" <> None);
  List.iter (H.observe h) [ 1.0; 2.0; 3.0; 10.0 ];
  Alcotest.(check int) "count" 4 (count ~registry:reg "h");
  Alcotest.(check (float 1e-9)) "sum" 16.0 (field reg "h" "sum");
  Alcotest.(check (float 1e-9)) "min" 1.0 (field reg "h" "min");
  Alcotest.(check (float 1e-9)) "max" 10.0 (field reg "h" "max");
  (* Quantiles are bucket-upper-bound estimates, clamped to max (the
     p99 bucket's bound is 16, the maximum 10). *)
  Alcotest.(check (float 0.0)) "p25" 1.0 (H.quantile h 0.25);
  Alcotest.(check (float 0.0)) "p50" 2.0 (H.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 10.0 (H.quantile h 1.0);
  (match H.quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q > 1 accepted");
  let want = "n=4 mean=4 min=1 max=10 p50<=2 p99<=10" in
  Alcotest.(check bool) (Printf.sprintf "table row has %S" want) true (find (table ()) want <> None)

(* Same-named histograms of two registries merge element-wise: counts
   and sums add, min and max widen, and the source is left as it was. *)
let test_histogram_merge () =
  let a = Metrics.Private.create () and b = Metrics.Private.create () in
  List.iter (H.observe (H.v ~registry:a "h")) [ 1.0; 2.0 ];
  H.observe (H.v ~registry:b "h") 8.0;
  Metrics.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "count" 3 (count ~registry:b "h");
  Alcotest.(check (float 1e-9)) "sum" 11.0 (field b "h" "sum");
  Alcotest.(check (float 1e-9)) "min" 1.0 (field b "h" "min");
  Alcotest.(check (float 1e-9)) "max" 8.0 (field b "h" "max");
  Alcotest.(check int) "source untouched" 2 (count ~registry:a "h")

let test_registry_merge () =
  let a = Metrics.Private.create () and b = Metrics.Private.create () in
  Metrics.Counter.add (Metrics.Counter.v ~registry:a "c") 5;
  Metrics.Counter.add (Metrics.Counter.v ~registry:b "c") 7;
  H.observe (H.v ~registry:a "h") 1.0;
  H.observe (H.v ~registry:b "h") 4.0;
  Metrics.Gauge.set (Metrics.Gauge.v ~registry:a "g") 3.0;
  Metrics.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "counter adds" 12 (counter ~registry:b "c");
  Alcotest.(check int) "histograms merge" 2 (count ~registry:b "h");
  Alcotest.(check (float 1e-9)) "histogram sums add" 5.0 (field b "h" "sum");
  Alcotest.(check (float 0.0)) "gauge copied" 3.0 (field b "g" "value");
  Alcotest.(check (list string))
    "names sorted" [ "c"; "g"; "h" ]
    (List.map
       (fun l -> Scanf.sscanf l {|{"type":%S,"name":%S|} (fun _ name -> name))
       (Metrics.to_jsonl b))

let test_domain_safety () =
  (* K domains hammer the same names through find-or-create while
     recording; every increment and observation must land exactly. *)
  let reg = Metrics.Private.create () in
  let k = 4 and per = 20_000 in
  let worker _ =
    let c = Metrics.Counter.v ~registry:reg "dom.c" in
    let h = H.v ~registry:reg "dom.h" in
    for i = 1 to per do
      Metrics.Counter.incr c;
      (* Re-resolve by name mid-loop: registry lookups race with
         recorders on other domains. *)
      if i mod 1000 = 0 then Metrics.Counter.add (Metrics.Counter.v ~registry:reg "dom.c2") 1;
      H.observe h (float_of_int (i land 1023))
    done
  in
  let doms = List.init k (fun i -> Domain.spawn (fun () -> worker i)) in
  List.iter Domain.join doms;
  Alcotest.(check int) "counter exact" (k * per) (counter ~registry:reg "dom.c");
  Alcotest.(check int) "find-or-create raced counter exact" (k * per / 1000) (counter ~registry:reg "dom.c2");
  Alcotest.(check int) "histogram count exact" (k * per) (count ~registry:reg "dom.h");
  let expect_sum =
    float_of_int k *. Float.of_int (List.fold_left ( + ) 0 (List.init per (fun i -> (i + 1) land 1023)))
  in
  Alcotest.(check (float 1e-6)) "histogram sum exact" expect_sum (field reg "dom.h" "sum")

let test_jsonl_shape () =
  let reg = Metrics.Private.create () in
  Metrics.Counter.add (Metrics.Counter.v ~registry:reg "keys") 536;
  H.observe (H.v ~registry:reg "lat") 3.0;
  H.observe (H.v ~registry:reg "lat") 5.0;
  let lines = Metrics.to_jsonl reg in
  Alcotest.(check int) "one line per metric" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "no embedded newline" true (not (String.contains l '\n')))
    lines;
  Alcotest.(check string)
    "counter shape" {|{"type":"counter","name":"keys","value":536}|} (List.hd lines);
  Alcotest.(check string)
    "histogram shape"
    {|{"type":"histogram","name":"lat","count":2,"sum":8,"min":3,"max":5,"buckets":[{"le":4,"count":1},{"le":8,"count":1}]}|}
    (List.nth lines 1)

let test_json_floats () =
  Alcotest.(check string) "integral" "120" (Jsonx.float 120.0);
  Alcotest.(check string) "negative zero ok" "-0" (Jsonx.float (-0.0));
  Alcotest.(check bool) "fraction round-trips" true
    (float_of_string (Jsonx.float 0.1) = 0.1);
  Alcotest.(check bool) "tiny round-trips" true
    (float_of_string (Jsonx.float 2.3283064365386963e-10) = 2.3283064365386963e-10);
  Alcotest.(check string) "nan quoted" {|"nan"|} (Jsonx.float Float.nan);
  Alcotest.(check string) "inf quoted" {|"inf"|} (Jsonx.float Float.infinity);
  Alcotest.(check string) "escaping" {|"a\"b\\c\nd"|} (Jsonx.str "a\"b\\c\nd")

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_disabled_is_passthrough () =
  Obs.set_enabled false;
  let reg = Metrics.Private.create () in
  let r = Span.with_span ~registry:reg "noop" (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check (list string)) "nothing registered" [] (Metrics.to_jsonl reg)

(* Nested spans each record one duration into their own histogram, and
   the outer one's covers the inner one's. *)
let test_span_nesting () =
  let reg = Metrics.Private.create () in
  let spin () =
    let t0 = Sys.time () in
    while Sys.time () -. t0 < 0.002 do
      ()
    done
  in
  with_obs true (fun () ->
      Span.with_span ~registry:reg "outer" (fun () ->
          spin ();
          Span.with_span ~registry:reg "inner" spin));
  Alcotest.(check int) "one inner call" 1 (count ~registry:reg "span.inner");
  Alcotest.(check int) "one outer call" 1 (count ~registry:reg "span.outer");
  let dur name = field reg ("span." ^ name) "sum" in
  Alcotest.(check bool) "inner took time" true (dur "inner" > 0.0);
  Alcotest.(check bool) "outer includes inner" true (dur "outer" >= dur "inner")

let test_span_records_on_exception () =
  let reg = Metrics.Private.create () in
  with_obs true (fun () ->
      match Span.with_span ~registry:reg "boom" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "duration recorded" 1 (count ~registry:reg "span.boom")

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let capacity = 4096

let test_journal_ring_eviction () =
  let j = Journal.default in
  Journal.clear j;
  for i = 1 to capacity + 2 do
    Journal.record ~time:(float_of_int i) "ev" [ ("i", Journal.Int i) ]
  done;
  let events = Journal.events j in
  Alcotest.(check int) "length capped" capacity (List.length events);
  Alcotest.(check (float 0.0)) "oldest evicted first" 3.0 (List.hd events).time;
  Alcotest.(check (float 0.0))
    "newest last"
    (float_of_int (capacity + 2))
    (List.nth events (capacity - 1)).time;
  Journal.clear j;
  Alcotest.(check int) "cleared" 0 (List.length (Journal.events j))

let test_journal_sink_sees_everything () =
  let j = Journal.default in
  Journal.clear j;
  let lines = ref [] in
  Journal.set_sink j (Some (fun l -> lines := l :: !lines));
  for i = 1 to capacity + 4 do
    Journal.record ~time:0.0 (Printf.sprintf "e%d" i) []
  done;
  Alcotest.(check int) "sink saw every event past the ring's capacity" (capacity + 4)
    (List.length !lines);
  Journal.set_sink j None;
  Journal.record ~time:0.0 "e6" [];
  Alcotest.(check int) "detached" (capacity + 4) (List.length !lines);
  Journal.clear j

let test_journal_jsonl_line () =
  let ev =
    {
      Journal.time = 1.5;
      name = "interval.end";
      fields =
        [
          ("rekeyed", Journal.Bool true);
          ("keys", Journal.Int 7);
          ("lat", Journal.Float 2.5);
          ("who", Journal.Str "s1");
        ];
    }
  in
  Alcotest.(check string)
    "line shape"
    {|{"time":1.5,"event":"interval.end","rekeyed":true,"keys":7,"lat":2.5,"who":"s1"}|}
    (Journal.to_jsonl_line ev)

let () =
  Alcotest.run "gkm_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "reset_all" `Quick test_reset_all;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "registry merge" `Quick test_registry_merge;
          Alcotest.test_case "domain safety" `Quick test_domain_safety;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
          Alcotest.test_case "json floats" `Quick test_json_floats;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled passthrough" `Quick test_span_disabled_is_passthrough;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on exception" `Quick test_span_records_on_exception;
        ] );
      ( "journal",
        [
          Alcotest.test_case "ring eviction" `Quick test_journal_ring_eviction;
          Alcotest.test_case "sink sees everything" `Quick test_journal_sink_sees_everything;
          Alcotest.test_case "jsonl line" `Quick test_journal_jsonl_line;
        ] );
    ]
