(* Lockstep rekey benchmark.

     rekeybench --workload paper-tt|udp-steady|tcp-rejoin --seed N
                --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, and the spans go to
   perfbench/results/trace-<workload>-<seed>.jsonl. See
   perfbench/README.md for what each metric means. *)

let end_to_end =
  [
    ("rekey_ms_p50", "ms");
    ("rekey_ms_p90", "ms");
    ("rekeys_per_s", "1/s");
    ("keys_per_rekey", "keys");
    ("server_tx_bytes_per_rekey", "bytes");
    ("setup_s", "s");
    ("rejoin_ms_p50", "ms");
    ("rejoin_ms_p90", "ms");
    ("heap_mb", "MB");
  ]

let per_layer =
  [
    ("core.rekey_ms", "ms");
    ("core.register_us", "us");
    ("core.keys", "keys");
    ("core.migrations", "count/rekey");
    ("core.self_ms", "ms");
    ("crypto.wrap_us", "us");
    ("transport.encode_ms", "ms");
    ("transport.packets", "count/rekey");
    ("transport.decode_us", "us");
    ("transport.self_ms", "ms");
    ("wire.encode_ms", "ms");
    ("wire.decode_us", "us");
    ("wire.bytes", "bytes");
    ("wire.self_ms", "ms");
    ("record.seal_ms", "ms");
    ("record.seal_us_per_kb", "us/KB");
    ("record.open_us", "us");
    ("record.epoch_us", "us");
    ("record.auth_fail", "count");
    ("record.replay_drop", "count");
    ("record.self_ms", "ms");
    ("lkh.process_us", "us");
    ("lkh.entries_used", "count");
    ("lkh.self_ms", "ms");
    ("netd.tick_ms", "ms");
    ("netd.fanout_wait_ms", "ms");
    ("netd.client_us", "us");
    ("netd.client_sum_ms", "ms");
    ("netd.event_ms", "ms");
    ("netd.tx_bytes", "bytes/rekey");
    ("netd.mcast_bytes", "bytes/rekey");
    ("netd.mcast_datagrams", "count/rekey");
    ("netd.mcast_fallback", "count");
    ("netd.nacks", "count");
    ("netd.resyncs", "count");
    ("netd.soft_skips", "count");
    ("netd.migrations", "count");
    ("netd.tickets_issued", "count/rekey");
    ("netd.ticket_bytes", "bytes/rekey");
    ("netd.rejoins_0rtt", "count");
    ("netd.rejoins_full", "count");
    ("netd.ticket_rejects", "count");
    ("netd.self_ms", "ms");
    ("analytic.keys_pred", "keys");
    ("analytic.keys_ratio", "ratio");
    ("bench.verify_ms", "ms");
    ("bench.cpu_busy_frac", "fraction");
    ("bench.trace_overhead_frac", "fraction");
    ("recovery_frac", "fraction");
  ]

let usage () =
  prerr_endline
    "usage: rekeybench --workload paper-tt|udp-steady|tcp-rejoin --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  (get "workload", int "seed", float_of_int (int "seconds"), int "trace" = 1)

(* Per traced rekey, each layer's self time. *)
let self_times r =
  let rekeys = Stats.count (Trace.per_rekey "bench.interval") in
  List.iter
    (fun (layer, (_, _, self)) ->
      if List.mem_assoc (layer ^ ".self_ms") per_layer then
        Report.set r (layer ^ ".self_ms") (self *. 1e3 /. float_of_int (max 1 rekeys)))
    (Trace.layers ())

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let r = Report.create () in
  let run spec = Harness.run spec ~workload ~seed ~seconds ~trace r in
  (match workload with
  | "paper-tt" -> run (Paper_tt.workload ~seed ~seconds)
  | "udp-steady" -> run (Live.workload ~seed ~transport:`Udp ~trace)
  | "tcp-rejoin" -> run (Live.workload ~seed ~transport:`Tcp ~trace)
  | w ->
      Printf.eprintf "rekeybench: unknown workload %S\n" w;
      exit 2);
  if r.Report.attempted > 0 then
    Report.set r "recovery_frac" (float_of_int r.Report.failed /. float_of_int r.Report.attempted);
  let catalogue = if trace then per_layer else end_to_end in
  if trace then begin
    self_times r;
    let dir = Filename.concat "perfbench" "results" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
    Trace.write path;
    Report.note r "spans written to %s" path;
    List.iter
      (fun (l, (c, busy, self)) ->
        Report.note r "layer %-9s %7d spans  busy %10.3f ms  self %10.3f ms" l c (busy *. 1e3)
          (self *. 1e3))
      (Trace.layers ())
  end;
  List.iter print_endline (List.rev r.Report.notes);
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Report.get r name) in
        let v = if Float.is_finite v then v else (Report.error r "%s is not finite" name; 0.0) in
        Printf.printf "%-28s %16.6f %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      catalogue
  in
  List.iter (Printf.eprintf "rekeybench: FAILED CHECK: %s\n") (List.rev r.Report.errors);
  let correct = r.Report.errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.Report.attempted) r.Report.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
