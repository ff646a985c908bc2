(* The lockstep loop shared by every workload.

   A workload builds its group ([setup], timed [setup_reps] times from
   scratch, the last build kept), then runs closed-loop intervals: each
   applies that interval's membership events, rekeys, and returns only
   once the rekey has reached every verifying member. Intervals run
   until [seconds] have passed, and at least [pin] of them — the
   pinned window over which the per-rekey counts are computed, so that
   one seed reproduces them exactly however fast the machine is. In a
   traced run every other interval records spans, which gives the
   tracing overhead from one run.

   Timings are reported at reference speed. The small virtual machines
   this runs on change speed by up to 2x for seconds at a time, as
   other tenants come and go on the host. So a fixed kernel, part of
   the benchmark and not of the program, is timed beside every
   interval and every setup, and each interval's (or setup's) times
   are scaled by [ref_nominal] over the mean of the kernel times just
   before and just after it. A change to the program moves the scaled
   numbers; a change in host speed mostly does not. The unscaled
   numbers are printed too. *)

type iv = {
  rekey_ms : float;  (** tick start until every verifying member holds the new DEK *)
  keys : int;  (** encrypted key entries in the rekey *)
  bytes : int;  (** server egress for the interval *)
  rejoin_ms : float list;  (** re-entry latencies observed in the interval *)
}

type 'g spec = {
  setup : unit -> 'g;
  teardown : 'g -> unit;
  interval : 'g -> iv;
  dek_trace : 'g -> (int * string) list;  (** (rekey_no, DEK fingerprint), oldest first *)
  finish : 'g -> Report.t -> unit;  (** correctness checks and per-layer metrics *)
}

let setup_reps = 3
let pin = 24
let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let digest_trace trace =
  let ctx = Gkm_crypto.Sha256.init () in
  List.iter
    (fun (n, fp) -> Gkm_crypto.Sha256.update_string ctx (Printf.sprintf "%d:%s;" n fp))
    trace;
  Gkm_crypto.Hex.encode (Gkm_crypto.Sha256.finalize ctx)

(* Key.wrap_with per call, over a pre-expanded KEK: the unit of work
   the paper's "encrypted keys" count. *)
let calibrate_wrap () =
  let rng = Gkm_crypto.Prng.create 7 in
  let kek = Gkm_crypto.Key.cipher (Gkm_crypto.Key.fresh rng) in
  let k = Gkm_crypto.Key.fresh rng in
  let per = Stats.create () in
  for _ = 1 to 7 do
    let t0 = now () in
    for _ = 1 to 2000 do
      ignore (Sys.opaque_identity (Gkm_crypto.Key.wrap_with kek k))
    done;
    Stats.add per ((now () -. t0) /. 2000.0 *. 1e6)
  done;
  Stats.median per

(* The reference kernel: byte-table lookups, shifts and xors over a
   small state with an allocation per round — the shape of the cipher
   work that dominates every workload. Of the kernels tried it tracked
   the workloads' speed changes best. About 1 ms here. *)
let ref_nominal = 1e-3
let sbox = Array.init 256 (fun i -> ((i * 167) + 13) land 255)

let reference () =
  let t0 = now () in
  let st = ref (Array.init 16 (fun i -> i)) in
  for _ = 1 to 4_000 do
    let a = Array.make 16 0 in
    let s = !st in
    for i = 0 to 15 do
      let b = sbox.(s.(i)) lxor s.((i + 5) land 15) in
      let b2 = b lsl 1 in
      a.(i) <- (if b2 land 0x100 <> 0 then b2 lxor 0x11b else b2) lxor s.((i + 10) land 15)
    done;
    st := a
  done;
  ignore (Sys.opaque_identity !st);
  now () -. t0

(* [ref_nominal] over the kernel time around one timed stretch. *)
let scale before after = ref_nominal /. ((before +. after) /. 2.0)

let run spec ~workload ~seed ~seconds ~trace (r : Report.t) =
  let setup_s = Stats.create () and setup_raw = Stats.create () in
  let g = ref None in
  for _ = 1 to setup_reps do
    Option.iter spec.teardown !g;
    g := None;
    Gc.full_major ();
    let before = reference () in
    let t0 = now () in
    let x = spec.setup () in
    let t = now () -. t0 in
    Stats.add setup_raw t;
    Stats.add setup_s (t *. scale before (reference ()));
    g := Some x
  done;
  let g = Option.get !g in
  let ivs = ref [] and traced = ref [] and n = ref 0 and pinned_dek = ref "" in
  let refs = ref [ reference () ] and walls = ref [] in
  let walls_on = Stats.create () and walls_off = Stats.create () in
  let t0 = now () and cpu0 = cpu () in
  while now () -. t0 < seconds || !n < pin do
    Trace.on := trace && !n mod 2 = 0;
    let a = now () in
    let iv = spec.interval g in
    let w = now () -. a in
    Stats.add (if !Trace.on then walls_on else walls_off) w;
    if !Trace.on then traced := iv.rekey_ms :: !traced;
    ivs := iv :: !ivs;
    walls := w :: !walls;
    refs := reference () :: !refs;
    incr n;
    if !n = pin then pinned_dek := digest_trace (spec.dek_trace g)
  done;
  Trace.on := false;
  let wall = now () -. t0 and busy = cpu () -. cpu0 in
  let ivs = List.rev !ivs and walls = List.rev !walls in
  let refs = Array.of_list (List.rev !refs) in
  let k = List.mapi (fun i _ -> scale refs.(i) refs.(i + 1)) ivs in
  let pinned = List.filteri (fun i _ -> i < pin) ivs in
  let per_pin f =
    float_of_int (List.fold_left (fun a iv -> a + f iv) 0 pinned) /. float_of_int pin
  in
  let lat = Stats.of_list (List.map (fun iv -> iv.rekey_ms) ivs) in
  let rej = Stats.of_list (List.concat_map (fun iv -> iv.rejoin_ms) ivs) in
  let lat_s = Stats.of_list (List.map2 (fun iv k -> k *. iv.rekey_ms) ivs k) in
  let rej_s =
    Stats.of_list (List.concat (List.map2 (fun iv k -> List.map (( *. ) k) iv.rejoin_ms) ivs k))
  in
  let scaled_wall = List.fold_left ( +. ) 0.0 (List.map2 ( *. ) walls k) in
  Report.set r "rekey_ms_p50" (Stats.quantile lat_s 0.5);
  Report.set r "rekey_ms_p90" (Stats.quantile lat_s 0.9);
  Report.set r "rekeys_per_s" (float_of_int !n /. scaled_wall);
  Report.set r "keys_per_rekey" (per_pin (fun iv -> iv.keys));
  Report.set r "server_tx_bytes_per_rekey" (per_pin (fun iv -> iv.bytes));
  Report.set r "setup_s" (Stats.median setup_s);
  Report.set r "rejoin_ms_p50" (Stats.quantile rej_s 0.5);
  Report.set r "rejoin_ms_p90" (Stats.quantile rej_s 0.9);
  Report.set r "bench.cpu_busy_frac" (busy /. wall);
  if trace then begin
    (* The traced intervals' own rekey_ms, unscaled, for the layer accounting. *)
    Report.set r "bench.traced_rekey_ms_p50" (Stats.median (Stats.of_list !traced));
    Report.set r "bench.trace_overhead_frac"
      ((Stats.median walls_on /. Stats.median walls_off) -. 1.0);
    Report.set r "crypto.wrap_us" (calibrate_wrap ())
  end;
  Report.note r "measured %d intervals in %.2f s; reference kernel median %.4f ms" !n wall
    (Stats.median (Stats.of_list (Array.to_list refs)) *. 1e3);
  Report.note r "unscaled: rekey_ms p50 %.3f p90 %.3f (%d samples, %d beyond p90)"
    (Stats.quantile lat 0.5) (Stats.quantile lat 0.9) (Stats.count lat) (Stats.beyond lat 0.9);
  Report.note r "unscaled: rejoin_ms p50 %.4f p90 %.4f (%d samples, %d beyond p90)"
    (Stats.quantile rej 0.5) (Stats.quantile rej 0.9) (Stats.count rej) (Stats.beyond rej 0.9);
  let setups = Array.map (Printf.sprintf "%.3f") (Stats.to_array setup_raw) in
  Report.note r "unscaled: setup_s %s; rekeys_per_s %.4f"
    (String.concat " " (Array.to_list setups))
    (float_of_int !n /. wall);
  Report.note r
    "pinned workload=%s seed=%d intervals=%d keys_per_rekey=%.4f \
     server_tx_bytes_per_rekey=%.4f dek_trace_sha256=%s"
    workload seed pin
    (per_pin (fun iv -> iv.keys))
    (per_pin (fun iv -> iv.bytes))
    !pinned_dek;
  spec.finish g r;
  spec.teardown g;
  let st = Gc.quick_stat () in
  Report.set r "heap_mb"
    (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
