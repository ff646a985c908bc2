module Jsonx = Gkm_obs.Jsonx

type config = {
  org : string;
  n : int;
  tp : float;
  intervals : int;
  budget : float;
  seed : int;
  deliver : bool;
  verify : bool;
}

let default =
  {
    org = "composed";
    n = 1_000_000;
    tp = 60.0;
    intervals = 10;
    budget = 600.0;
    seed = 1;
    deliver = true;
    verify = true;
  }

type iteration = {
  iter : int;
  plan : string;
  seconds : float;
  faults : int;
  restores : int;
  resyncs : int;
  rejoins : int;
  verified : bool;
  recovered : bool;
  converged : bool option;
  ok : bool;
}

type report = { iterations : iteration list; elapsed : float; ok : bool }

(* Rotate through every fault family; the window positions shift with
   the iteration index so successive iterations stress different
   intervals of the same (seeded, hence identical) churn. *)
let plan_for i =
  let k lo span = lo + (i mod span) in
  match i mod 4 with
  | 0 ->
      Printf.sprintf "crash@%d;loss@%d-%d:0.3" (k 2 5)
        (120 + (60 * (i mod 3)))
        (300 + (60 * (i mod 3)))
  | 1 -> Printf.sprintf "desync@%d:%d;drop@%d:%d" (k 3 4) (k 1 3) (k 1 3) (k 4 4)
  | 2 -> Printf.sprintf "corrupt@%d;delay@%d:%d:2" (k 4 4) (k 2 4) (k 2 5)
  | _ ->
      Printf.sprintf "crash@%d;loss@120-300:0.3;desync@%d:%d;corrupt@%d;drop@1:%d"
        (k 2 4) (k 4 4) (k 2 3) (k 5 4) (k 3 5)

let session_config cfg =
  let spec =
    match
      Gkm.Organization.spec_of_string ~degree:4 ~s_period:10 ~seed:(cfg.seed + 1) cfg.org
    with
    | Ok s -> s
    | Error e -> invalid_arg ("soak organization: " ^ e)
  in
  {
    Gkm.Session.default_config with
    n_target = cfg.n;
    ms = 120.0;
    ml = 1800.0;
    tp = cfg.tp;
    horizon = cfg.tp *. float_of_int cfg.intervals;
    seed = cfg.seed;
    org = spec;
    deliver = cfg.deliver;
    verify = cfg.verify;
  }

let jsonl_of_iteration it =
  Jsonx.obj
    ([
       ("iter", Jsonx.int it.iter);
       ("plan", Jsonx.str it.plan);
       ("seconds", Jsonx.float it.seconds);
       ("faults", Jsonx.int it.faults);
       ("restores", Jsonx.int it.restores);
       ("resyncs", Jsonx.int it.resyncs);
       ("rejoins", Jsonx.int it.rejoins);
       ("verified", Jsonx.bool it.verified);
       ("recovered", Jsonx.bool it.recovered);
     ]
    @ (match it.converged with
      | None -> []
      | Some c -> [ ("converged", Jsonx.bool c) ])
    @ [ ("ok", Jsonx.bool it.ok) ])

type verdict = { converged : bool option; ok : bool }

(* Only the rejoin fallback re-draws organization keys; every other
   fault recovers onto the fault-free key sequence. *)
let verdict ~baseline (r : Gkm.Session.result) =
  let converged =
    if r.rejoins = 0 then Some (r.dek_trace = baseline.Gkm.Session.dek_trace) else None
  in
  {
    converged;
    ok = r.verified && r.recovered && Option.value converged ~default:true;
  }

let run ?(emit = fun _ -> ()) cfg =
  let scfg = session_config cfg in
  let t0 = Unix.gettimeofday () in
  (* One fault-free run pins the DEK trace every faulted iteration
     must converge back to (same seed, so same churn). *)
  let baseline = Gkm.Session.run scfg in
  let iterations = ref [] in
  let i = ref 0 in
  let continue () =
    !i = 0 || Unix.gettimeofday () -. t0 < cfg.budget
  in
  while continue () do
    let plan_str = plan_for !i in
    let plan =
      match Gkm_fault.Fault.of_string plan_str with
      | Ok p -> p
      | Error e -> invalid_arg ("soak plan: " ^ e)
    in
    let it0 = Unix.gettimeofday () in
    let r = Gkm.Session.run ~faults:plan scfg in
    let seconds = Unix.gettimeofday () -. it0 in
    let { converged; ok } = verdict ~baseline r in
    let it =
      {
        iter = !i;
        plan = plan_str;
        seconds;
        faults = r.Gkm.Session.faults_injected;
        restores = r.Gkm.Session.restores;
        resyncs = r.Gkm.Session.resyncs;
        rejoins = r.Gkm.Session.rejoins;
        verified = r.Gkm.Session.verified;
        recovered = r.Gkm.Session.recovered;
        converged;
        ok;
      }
    in
    emit (jsonl_of_iteration it);
    iterations := it :: !iterations;
    incr i
  done;
  let iterations = List.rev !iterations in
  {
    iterations;
    elapsed = Unix.gettimeofday () -. t0;
    ok =
      baseline.Gkm.Session.verified
      && List.for_all (fun (it : iteration) -> it.ok) iterations;
  }
