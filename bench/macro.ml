(* Macro benchmark: the rekey hot path at production group sizes.

   Each run builds an organization from the time-0 steady-state
   population of the Section 3.3.1 two-class workload, then drives
   steady-state churn batches through its [rekey] and reports build
   time, exact batch-latency quantiles (type-7 over every churn batch,
   {!Gkm_sim.Stats.Sample}), churn throughput and keys-encrypted
   throughput.
   Results are written as one JSON document (default
   BENCH_macro.json); see the README "Benchmarks" section for the
   schema. *)

module Prng = Gkm_crypto.Prng
module Scheme = Gkm.Scheme
module Organization = Gkm.Organization
module Membership = Gkm_workload.Membership
module Sample = Gkm_sim.Stats.Sample
module Jsonx = Gkm_obs.Jsonx

type row = {
  org : string; (* the Organization display name *)
  n : int;
  alpha : float;
  build_s : float;
  intervals : int;
  churn_ops : int; (* joins + departures processed in the churn phase *)
  churn_s : float;
  keys_encrypted : int;
  p50_us : float;
  p99_us : float;
}

let now () = Unix.gettimeofday ()

(* One churn protocol for every organization. Loss rates are a
   deterministic 25% high-loss mix so no extra PRNG stream perturbs
   the workload; the two-partition schemes see each member's class.
   Every departure in a batch is a member or a joiner of the same
   interval, so it is enqueued as is. *)
let run_org_config ~seed ~n ~alpha ~intervals ~spec =
  let cfg = Membership.of_params ~n_target:n ~alpha ~ms:180.0 ~ml:10800.0 ~tp:1.0 in
  let rng = Prng.create seed in
  let batches = Membership.intervals cfg ~rng ~n_intervals:(intervals + 1) in
  let module O = (val Organization.create spec) in
  let batch_us = Sample.create () in
  let cls = function Membership.Short -> Scheme.Short | Membership.Long -> Scheme.Long in
  let loss_of m = if m mod 4 = 0 then 0.2 else 0.02 in
  let batch (joins, departs) =
    List.iter (fun (m, c) -> ignore (O.register ~member:m ~cls:(cls c) ~loss:(loss_of m))) joins;
    List.iter O.enqueue_departure departs;
    ignore (O.rekey ())
  in
  match batches with
  | [] -> invalid_arg "Macro.run_org_config: no intervals"
  | first :: churn ->
      (* Build phase: admit the steady-state population in one batch.
         Departures falling inside interval 0 cancel or evict as they
         would live. *)
      let t0 = now () in
      batch first;
      let build_s = now () -. t0 in
      let churn_ops = ref 0 in
      let keys0 = O.cumulative_keys () in
      let t1 = now () in
      List.iter
        (fun ((joins, departs) as b) ->
          let b0 = now () in
          batch b;
          Sample.add batch_us ((now () -. b0) *. 1e6);
          churn_ops := !churn_ops + List.length joins + List.length departs)
        churn;
      let churn_s = now () -. t1 in
      let quantile q = if Sample.count batch_us = 0 then 0.0 else Sample.quantile batch_us q in
      {
        org = Organization.spec_name spec;
        n;
        alpha;
        build_s;
        intervals = List.length churn;
        churn_ops = !churn_ops;
        churn_s;
        keys_encrypted = O.cumulative_keys () - keys0;
        p50_us = quantile 0.5;
        p99_us = quantile 0.99;
      }

let ops_per_sec r = float_of_int r.churn_ops /. r.churn_s

let json_of_row r =
  Jsonx.obj
    [
      ("org", Jsonx.str r.org);
      ("n", Jsonx.int r.n);
      ("alpha", Jsonx.float r.alpha);
      ("build_s", Jsonx.float r.build_s);
      ("intervals", Jsonx.int r.intervals);
      ("churn_ops", Jsonx.int r.churn_ops);
      ("churn_s", Jsonx.float r.churn_s);
      ("ops_per_sec", Jsonx.float (ops_per_sec r));
      ("keys_encrypted", Jsonx.int r.keys_encrypted);
      ( "keys_encrypted_per_sec",
        Jsonx.float (float_of_int r.keys_encrypted /. r.churn_s) );
      ("batch_p50_us", Jsonx.float r.p50_us);
      ("batch_p99_us", Jsonx.float r.p99_us);
    ]

let print_row r =
  Printf.printf
    "  %-28s N=%-8d alpha=%.2f  build %6.2fs  %7.0f ops/s  %8.0f keys/s  p50 %8.0fus  p99 %8.0fus\n%!"
    r.org r.n r.alpha r.build_s (ops_per_sec r)
    (float_of_int r.keys_encrypted /. r.churn_s)
    r.p50_us r.p99_us

(* Floor-file syntax: one "org-name value" pair per line (comments and
   blanks ignored). *)
let read_floor path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc
            else
              match String.rindex_opt line ' ' with
              | None ->
                  failwith (Printf.sprintf "%s: %S is not an \"org-name value\" line" path line)
              | Some i ->
                  let name = String.trim (String.sub line 0 i) in
                  let v =
                    float_of_string
                      (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
                  in
                  go ((name, v) :: acc))
      in
      go [])

(* The regression gate: the floor file records reference churn
   throughputs (ops/sec) for the N = 10^4 organization rows with an
   entry, conservative enough for CI runners. Fail only on a > 2x drop: real
   regressions in the hot path are multiplicative, runner jitter is
   not. *)
let check_floor ~floors rows =
  let failures = ref [] in
  List.iter
    (fun r ->
      if r.n = 10_000 then
        match List.assoc_opt r.org floors with
        | None -> ()
        | Some floor ->
            let ops = ops_per_sec r in
            if ops < floor /. 2.0 then
              failures :=
                Printf.sprintf "%s: %.0f ops/s is more than 2x below the floor %.0f ops/s"
                  r.org ops floor
                :: !failures
            else
              Printf.printf "floor check: %-28s %7.0f ops/s >= %.0f/2 ops/s\n%!" r.org ops
                floor)
    rows;
  match List.rev !failures with
  | [] -> `Ok ()
  | fs -> `Error (false, "macro benchmark regression: " ^ String.concat "; " fs)

let run ?(out = "BENCH_macro.json") ?(quick = false) ?floor_file ?(intervals = 100)
    ?(seed = 1) () =
  let configs =
    if quick then [ (10_000, [ 0.8 ]) ]
    else [ (10_000, [ 0.2; 0.5; 0.8 ]); (100_000, [ 0.2; 0.5; 0.8 ]); (1_000_000, [ 0.8 ]) ]
  in
  (* The one-keytree baseline at every configuration, then the
     multi-tree organizations at the CI-sized one. *)
  let one_keytree =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.One_keytree) with seed = seed + 1 }
  in
  let runs =
    List.concat_map
      (fun (n, alphas) -> List.map (fun alpha -> (one_keytree, n, alpha)) alphas)
      configs
    @ List.map
        (fun spec -> (spec, 10_000, 0.8))
        [
          Organization.Composed_cfg
            { kind = Scheme.One_keytree; degree = 4; s_period = 10; seed = seed + 1;
              assignment = By_loss [ 0.05 ] };
          Organization.Composed_cfg
            { kind = Scheme.Tt; degree = 4; s_period = 10; seed = seed + 1;
              assignment = By_loss [ 0.05 ] };
        ]
  in
  let rows =
    List.map
      (fun (spec, n, alpha) ->
        Printf.printf "macro: org=%s N=%d alpha=%.2f (%d intervals)\n%!"
          (Organization.spec_name spec) n alpha intervals;
        let r = run_org_config ~seed ~n ~alpha ~intervals ~spec in
        print_row r;
        r)
      runs
  in
  let doc =
    Jsonx.obj
      [
        ("schema", Jsonx.str "gkm.bench.macro/6");
        ("quick", Jsonx.bool quick);
        ("seed", Jsonx.int seed);
        ("runs", Jsonx.arr (List.map json_of_row rows));
      ]
  in
  let oc = open_out out in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  match floor_file with
  | None -> `Ok ()
  | Some path -> check_floor ~floors:(read_floor path) rows
