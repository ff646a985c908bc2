(* gkm: command-line front end to the group-key-management library.

   Sub-commands:
     partition   two-partition rekeying costs (analytic model and/or
                 discrete simulation), optionally as CSV
     loss        loss-homogenized key-tree organization under a
                 reliable rekey transport (analytic and/or simulated)
     trace       generate / analyze membership traces (CSV)
     ne          evaluate the Appendix A batched-rekey cost Ne(N, L)
     session     run a full engine-driven session under any group
                 organization (--org one|qt|tt|pt|loss:..|random:..|composed)
     metrics     run a full session with observability on and dump the
                 metrics registry (human table + JSONL) and the event
                 journal
     chaos       run a session under a fault-injection plan twice plus
                 a fault-free baseline, checking determinism and
                 post-recovery DEK convergence
     serve       run a real rekey server on a TCP socket
     join        connect wire clients to a running server

   The sub-command group and the COMMANDS overview in --help are both
   derived from the single [command_table] at the bottom of this file;
   exit codes are documented centrally in [exits]. *)

open Cmdliner
open Gkm_analytic

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let n_arg =
  Arg.(value & opt int 65536 & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Group size.")

let alpha_arg doc = Arg.(value & opt float 0.8 & info [ "alpha" ] ~docv:"A" ~doc)
let degree_arg = Arg.(value & opt int 4 & info [ "d"; "degree" ] ~docv:"D" ~doc:"Key tree degree.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")
let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV.")

let enum_arg ~names ~default ~doc name =
  Arg.(value & opt (enum names) default & info [ name ] ~doc)

let group_size_arg default =
  Arg.(value & opt int default & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Steady-state group size.")

let k_arg = Arg.(value & opt int 10 & info [ "k"; "s-period" ] ~doc:"S-period in intervals.")
let ms_arg = Arg.(value & opt float 180.0 & info [ "ms" ] ~doc:"Mean short duration (s).")
let ml_arg = Arg.(value & opt float 10800.0 & info [ "ml" ] ~doc:"Mean long duration (s).")

let tp_arg ?(default = 60.0) ?(doc = "Rekey interval (s).") () =
  Arg.(value & opt float default & info [ "tp" ] ~doc)

let horizon_arg ~default doc = Arg.(value & opt float default & info [ "horizon" ] ~doc)
let l_arg = Arg.(value & opt int 256 & info [ "l"; "departures" ] ~doc:"Batched departures.")
let ph_arg = Arg.(value & opt float 0.2 & info [ "ph" ] ~doc:"High loss rate.")
let pl_arg = Arg.(value & opt float 0.02 & info [ "pl" ] ~doc:"Low loss rate.")

let no_deliver_arg =
  Arg.(value & flag & info [ "no-deliver" ] ~doc:"Skip the WKA-BKR delivery each interval.")

let no_verify_arg = Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip member-side verification.")
let journal_arg doc = Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
let duration_arg doc = Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"S" ~doc)
let host_arg doc = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
let port_arg doc = Arg.(value & opt int 7600 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

(* An invalid configuration: say why on stderr and exit 2. *)
let usage_error msg =
  prerr_endline msg;
  exit 2

let or_usage_error ~flag = function Ok v -> v | Error e -> usage_error (flag ^ ": " ^ e)

let org_spec ~degree ~k ~seed sel =
  or_usage_error ~flag:"--org"
    (Gkm.Organization.spec_of_string ~degree ~s_period:k ~seed:(seed + 1) sel)

(* Exit-code convention, shared by every sub-command: 0 success, 1
   failed verdict or runtime failure, 2 invalid configuration or
   malformed input, plus cmdliner's own 123-125. *)
let common_exits =
  Cmd.Exit.info 1
    ~doc:
      "on a failed verdict (verification, determinism, DEK convergence) or a runtime \
       failure such as an unreachable server."
  :: Cmd.Exit.info 2 ~doc:"on an invalid configuration or malformed input."
  :: Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* partition                                                           *)

let partition_cmd =
  let run n alpha degree k ms ml tp simulate intervals seed csv =
    let p = { Params.n; alpha; d = degree; k; ms; ml; tp } in
    (try Params.validate p with Invalid_argument e -> usage_error e);
    let schemes =
      [
        ("one-keytree", Two_partition.One_keytree, Gkm.Scheme.One_keytree);
        ("qt", Two_partition.Qt, Gkm.Scheme.Qt);
        ("tt", Two_partition.Tt, Gkm.Scheme.Tt);
        ("pt", Two_partition.Pt, Gkm.Scheme.Pt);
      ]
    in
    if csv then
      print_endline
        (if simulate then "scheme,analytic_keys,sim_keys,sim_ci95" else "scheme,analytic_keys")
    else begin
      Printf.printf "Two-partition rekeying costs (%s)\n" (Format.asprintf "%a" Params.pp p);
      Printf.printf "%-14s %14s%s\n" "scheme" "analytic"
        (if simulate then "        sim (+-95%)" else "")
    end;
    List.iter
      (fun (name, analytic_scheme, sim_kind) ->
        let analytic = Two_partition.cost p analytic_scheme in
        if simulate then begin
          let r =
            Gkm.Sim_driver.run_partition ~degree ~seed ~n ~alpha ~ms ~ml ~tp ~s_period:k
              ~warmup:(max 5 (intervals / 4)) ~intervals ~kind:sim_kind ()
          in
          if csv then Printf.printf "%s,%.2f,%.2f,%.2f\n" name analytic r.mean_keys r.ci95
          else Printf.printf "%-14s %14.1f %11.1f (+-%.1f)\n" name analytic r.mean_keys r.ci95
        end
        else if csv then Printf.printf "%s,%.2f\n" name analytic
        else Printf.printf "%-14s %14.1f\n" name analytic)
      schemes
  in
  let sim_arg = Arg.(value & flag & info [ "simulate" ] ~doc:"Also run the discrete simulation.") in
  let intervals_arg =
    Arg.(value & opt int 40 & info [ "intervals" ] ~doc:"Measured simulation intervals.")
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Two-partition scheme costs (Section 3)")
    Term.(
      const run $ n_arg
      $ alpha_arg "Fraction of short-duration joins."
      $ degree_arg $ k_arg $ ms_arg $ ml_arg $ tp_arg () $ sim_arg $ intervals_arg $ seed_arg
      $ csv_arg)

(* ------------------------------------------------------------------ *)
(* loss                                                                *)

let loss_cmd =
  let run n l alpha ph pl degree simulate trials transport seed csv =
    let c = { Loss_homogenized.n; l; d = degree; ph; pl } in
    (try Loss_homogenized.validate c with Invalid_argument e -> usage_error e);
    let orgs =
      [
        ("one-keytree", Some `One);
        ("two-random", Some `Random);
        ("loss-homogenized", Some `Homog);
      ]
      (* The composed organization has no closed-form analytic model;
         it appears as a simulation-only row. *)
      @ (if simulate then [ ("composed", None) ] else [])
    in
    if csv then
      print_endline
        (if simulate then "organization,analytic_keys,sim_keys" else "organization,analytic_keys")
    else begin
      Printf.printf
        "Loss-homogenized organization (N=%d L=%d d=%d ph=%g pl=%g alpha=%g)\n" n l degree ph
        pl alpha;
      Printf.printf "%-18s %14s%s\n" "organization" "analytic"
        (if simulate then "          sim" else "")
    end;
    List.iter
      (fun (name, which) ->
        (* The analytic column is the chosen transport's model: WKA-BKR
           replication, or proactive FEC, which has no two-random form;
           multi-send has none. *)
        let analytic =
          let fec = Proactive_fec.default in
          match (transport, which) with
          | Gkm.Sim_driver.Wka_bkr_transport, Some `One ->
              Some (Loss_homogenized.one_keytree c ~alpha)
          | Wka_bkr_transport, Some `Random -> Some (Loss_homogenized.two_random c ~alpha)
          | Wka_bkr_transport, Some `Homog -> Some (Loss_homogenized.loss_homogenized c ~alpha)
          | Fec_transport _, Some `One -> Some (Proactive_fec.one_keytree fec c ~alpha)
          | Fec_transport _, Some `Homog -> Some (Proactive_fec.loss_homogenized fec c ~alpha)
          | Fec_transport _, Some `Random | Multi_send_transport _, _ | _, None -> None
        in
        let analytic_csv = match analytic with Some a -> Printf.sprintf "%.1f" a | None -> "" in
        let analytic_col = match analytic with Some a -> Printf.sprintf "%14.1f" a | None -> Printf.sprintf "%14s" "-" in
        if simulate then begin
          let threshold = (ph +. pl) /. 2.0 in
          let organization =
            match which with
            | Some `One -> Gkm.Sim_driver.Org_one
            | Some `Random -> Gkm.Sim_driver.Org_random 2
            | Some `Homog -> Gkm.Sim_driver.Org_homogenized threshold
            | None ->
                (* PT inside each band: a join-time experiment has no
                   churn to drive TT migrations, so the oracle scheme
                   is the one that populates both partitions. *)
                Gkm.Sim_driver.Org_composed { threshold; kind = Gkm.Scheme.Pt; s_period = 10 }
          in
          let r =
            Gkm.Sim_driver.run_loss ~degree ~seed ~trials ~n ~l ~alpha ~ph ~pl ~organization
              ~transport ()
          in
          if csv then Printf.printf "%s,%s,%.1f\n" name analytic_csv r.mean_bandwidth
          else Printf.printf "%-18s %s %12.1f\n" name analytic_col r.mean_bandwidth
        end
        else if csv then Printf.printf "%s,%s\n" name analytic_csv
        else Printf.printf "%-18s %s\n" name analytic_col)
      orgs
  in
  let sim_arg =
    Arg.(
      value & flag
      & info [ "simulate" ]
          ~doc:"Also run the delivery simulation: key slots multicast, FEC parity included.")
  in
  let trials_arg = Arg.(value & opt int 3 & info [ "trials" ] ~doc:"Simulation trials.") in
  let transport_arg =
    enum_arg
      ~names:
        [
          ("wka-bkr", Gkm.Sim_driver.Wka_bkr_transport);
          ("multi-send", Gkm.Sim_driver.Multi_send_transport 2);
          ("fec", Gkm.Sim_driver.Fec_transport 0.25);
        ]
      ~default:Gkm.Sim_driver.Wka_bkr_transport
      ~doc:"Rekey transport for the simulation (wka-bkr, multi-send, fec)." "transport"
  in
  Cmd.v
    (Cmd.info "loss" ~doc:"Loss-homogenized key trees (Section 4)")
    Term.(
      const run $ n_arg $ l_arg
      $ alpha_arg "Fraction of high-loss receivers."
      $ ph_arg $ pl_arg $ degree_arg $ sim_arg $ trials_arg $ transport_arg $ seed_arg
      $ csv_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_generate_cmd =
  let run n alpha ms ml tp horizon seed =
    match
      Gkm_workload.Membership.of_params ~n_target:n ~alpha ~ms ~ml ~tp
    with
    | exception Invalid_argument e -> usage_error e
    | cfg ->
        let events =
          Gkm_workload.Membership.generate cfg
            ~rng:(Gkm_crypto.Prng.create seed)
            ~horizon
        in
        print_string (Gkm_workload.Trace.to_csv events)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a two-class membership trace as CSV on stdout")
    Term.(
      const run $ n_arg
      $ alpha_arg "Fraction of short-duration joins."
      $ ms_arg $ ml_arg $ tp_arg ()
      $ horizon_arg ~default:3600.0 "Trace length (s)."
      $ seed_arg)

let trace_fit_cmd =
  let run file tp =
    let read_all ic =
      let buf = Buffer.create 65536 in
      (try
         while true do
           Buffer.add_channel buf ic 65536
         done
       with End_of_file -> ());
      Buffer.contents buf
    in
    let text =
      match file with
      | "-" -> read_all stdin
      | path ->
          let ic = open_in path in
          let s = read_all ic in
          close_in ic;
          s
    in
    match Gkm_workload.Trace.of_csv text with
    | Error e -> usage_error e
    | Ok events -> (
        let durations = Gkm_workload.Trace.durations events in
        Printf.printf "events:     %d\n" (List.length events);
        Printf.printf "completed:  %d memberships\n" (List.length durations);
        Printf.printf "censored:   %d still present at trace end\n"
          (Gkm_workload.Trace.censored events);
        match Gkm_workload.Fit.em durations with
        | exception Invalid_argument e -> usage_error ("cannot fit: " ^ e)
        | m ->
            Printf.printf "EM fit:     alpha=%.3f Ms=%.1fs Ml=%.1fs\n" m.alpha m.ms m.ml;
            let live =
              List.fold_left
                (fun acc (e : Gkm_workload.Membership.event) ->
                  match e.kind with `Join -> acc + 1 | `Depart -> acc - 1)
                0 events
            in
            let p =
              {
                Params.default with
                n = max 2 live;
                alpha = m.alpha;
                ms = m.ms;
                ml = m.ml;
                tp;
              }
            in
            Printf.printf "\nAnalytic recommendation (N=%d, Tp=%gs):\n" p.n tp;
            List.iter
              (fun scheme ->
                let k, cost = Two_partition.best_k p scheme ~k_max:30 in
                Printf.printf "  %-12s best K=%-3d %10.1f keys/interval\n"
                  (Two_partition.scheme_name scheme)
                  k cost)
              [ Two_partition.One_keytree; Two_partition.Qt; Two_partition.Tt ])
  in
  let file_arg =
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Trace CSV ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "fit" ~doc:"Fit the two-exponential mixture to a trace and recommend a scheme")
    Term.(const run $ file_arg $ tp_arg ())

let trace_cmd =
  Cmd.group (Cmd.info "trace" ~doc:"Membership traces") [ trace_generate_cmd; trace_fit_cmd ]

(* ------------------------------------------------------------------ *)
(* ne                                                                  *)

let ne_cmd =
  let run n l degree per_level =
    let cost = Batch_cost.expected_keys_int ~d:degree ~n ~l in
    Printf.printf "Ne(N=%d, L=%d, d=%d) = %.2f encrypted keys\n" n l degree cost;
    if per_level then begin
      Printf.printf "%8s %16s\n" "level" "updated keys";
      List.iter
        (fun (level, updated) -> Printf.printf "%8d %16.2f\n" level updated)
        (Batch_cost.per_level ~d:degree ~n ~l)
    end
  in
  let per_level_arg =
    Arg.(value & flag & info [ "per-level" ] ~doc:"Break the cost down by tree level.")
  in
  Cmd.v
    (Cmd.info "ne" ~doc:"Evaluate the Appendix A batched-rekeying cost model")
    Term.(const run $ n_arg $ l_arg $ degree_arg $ per_level_arg)

(* ------------------------------------------------------------------ *)
(* session                                                             *)

let session_cmd =
  let run org_sel n alpha ms ml tp horizon degree k loss_alpha ph pl no_deliver no_verify
      seed csv =
    let spec = org_spec ~degree ~k ~seed org_sel in
    let cfg =
      {
        Gkm.Session.default_config with
        n_target = n;
        alpha_duration = alpha;
        ms;
        ml;
        tp;
        horizon;
        seed;
        loss_alpha;
        ph;
        pl;
        deliver = not no_deliver;
        verify = not no_verify;
        org = spec;
      }
    in
    let r = try Gkm.Session.run cfg with Invalid_argument e -> usage_error e in
    let name = Gkm.Organization.spec_name spec in
    if csv then begin
      print_endline
        "organization,intervals,rekeys,mean_keys,mean_keys_sent,mean_rounds,mean_packets,deadline_misses,mean_size,final_size,verified";
      Printf.printf "%s,%d,%d,%.2f,%.2f,%.2f,%.2f,%d,%.2f,%d,%b\n" name r.intervals
        r.rekeys r.mean_keys r.mean_keys_sent r.mean_rounds r.mean_packets
        r.deadline_misses r.mean_size r.final_size r.verified
    end
    else begin
      Printf.printf
        "Session under %s: N=%d alpha=%g Tp=%gs horizon=%gs (loss: %g%% at ph=%g, rest pl=%g)\n"
        name n alpha tp horizon (100.0 *. loss_alpha) ph pl;
      Printf.printf "  intervals        %d (%d rekeyed)\n" r.intervals r.rekeys;
      Printf.printf "  keys/rekey       %.1f encrypted\n" r.mean_keys;
      if not no_deliver then begin
        Printf.printf "  delivery         %.1f key copies, %.1f packets, %.1f rounds per rekey\n"
          r.mean_keys_sent r.mean_packets r.mean_rounds;
        Printf.printf "  deadline misses  %d\n" r.deadline_misses
      end;
      Printf.printf "  group size       %.1f mean, %d final\n" r.mean_size r.final_size;
      if not no_verify then
        Printf.printf "  verified         %b (member convergence + eviction lockout)\n"
          r.verified
    end;
    if (not no_verify) && not r.verified then exit 1
  in
  let org_arg =
    Arg.(
      value & opt string "tt"
      & info [ "org" ] ~docv:"ORG"
          ~doc:
            "Group organization: $(b,one)|$(b,qt)|$(b,tt)|$(b,pt) (two-partition schemes), \
             $(b,loss:T1,T2,..) (one-keytree bands placed by loss), $(b,random:K) (K \
             one-keytree bands filled round-robin), $(b,composed)[$(b,:KIND)[$(b,@T1,..)]] \
             (a scheme inside each loss band).")
  in
  let loss_alpha_arg =
    Arg.(value & opt float 0.25 & info [ "loss-alpha" ] ~doc:"Fraction of high-loss receivers.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Run a full engine-driven session (churn, batched rekeying, lossy delivery, \
          member verification) under any group organization")
    Term.(
      const run $ org_arg $ group_size_arg 400
      $ alpha_arg "Fraction of short-duration joins."
      $ ms_arg $ ml_arg $ tp_arg ()
      $ horizon_arg ~default:3600.0 "Session length (s)."
      $ degree_arg $ k_arg $ loss_alpha_arg
      $ ph_arg $ pl_arg $ no_deliver_arg $ no_verify_arg $ seed_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

let metrics_cmd =
  let module Obs = Gkm_obs.Obs in
  let module Metrics = Gkm_obs.Metrics in
  let module Journal = Gkm_obs.Journal in
  let run n alpha ms ml tp horizon kind degree k no_deliver no_verify seed jsonl_only
      journal_file =
    let cfg =
      {
        Gkm.Session.default_config with
        n_target = n;
        alpha_duration = alpha;
        ms;
        ml;
        tp;
        horizon;
        seed;
        deliver = not no_deliver;
        verify = not no_verify;
        org = Gkm.Organization.Scheme_cfg { Gkm.Scheme.kind; degree; s_period = k; seed = seed + 1 };
      }
    in
    Obs.set_enabled true;
    Metrics.reset Metrics.default;
    Journal.clear Journal.default;
    let oc =
      match journal_file with
      | None -> None
      | Some path ->
          let oc = open_out path in
          Journal.attach_channel Journal.default oc;
          Some oc
    in
    let r = try Gkm.Session.run cfg with Invalid_argument e -> usage_error e in
    Journal.set_sink Journal.default None;
    Option.iter close_out oc;
    if not jsonl_only then begin
      Printf.printf
        "Session: %d intervals, %d rekeys, %.1f keys/rekey, %d deadline misses, verified=%b\n\n"
        r.intervals r.rekeys r.mean_keys r.deadline_misses r.verified;
      Format.printf "%a@." Metrics.pp_table Metrics.default
    end;
    (* JSONL: the registry, then the retained journal events — one
       self-describing JSON object per line. *)
    List.iter print_endline (Metrics.to_jsonl Metrics.default);
    List.iter
      (fun ev -> print_endline (Journal.to_jsonl_line ev))
      (Journal.events Journal.default)
  in
  let scheme_arg =
    enum_arg
      ~names:
        [
          ("one-keytree", Gkm.Scheme.One_keytree);
          ("qt", Gkm.Scheme.Qt);
          ("tt", Gkm.Scheme.Tt);
          ("pt", Gkm.Scheme.Pt);
        ]
      ~default:Gkm.Scheme.Tt ~doc:"Rekeying scheme (one-keytree, qt, tt, pt)." "scheme"
  in
  let jsonl_only_arg =
    Arg.(value & flag & info [ "jsonl-only" ] ~doc:"Suppress the human-readable table.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a full session with observability enabled and dump the metrics registry and \
          event journal (human table + JSONL)")
    Term.(
      const run $ group_size_arg 400
      $ alpha_arg "Fraction of short-duration joins."
      $ ms_arg $ ml_arg $ tp_arg ()
      $ horizon_arg ~default:3600.0 "Session length (s)."
      $ scheme_arg $ degree_arg $ k_arg $ no_deliver_arg $ no_verify_arg $ seed_arg
      $ jsonl_only_arg
      $ journal_arg
          "Stream the complete event journal to $(docv) as it is recorded (the stdout dump \
           only retains the in-memory ring).")

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)

let chaos_cmd =
  let module Obs = Gkm_obs.Obs in
  let module Metrics = Gkm_obs.Metrics in
  let module Journal = Gkm_obs.Journal in
  let default_plan =
    (* Touches every fault family within a 10-interval session. *)
    "crash@3;loss@120-300:0.3;desync@5:3;corrupt@7;drop@1:5"
  in
  let run plan_str org_sel n tp horizon degree k seed journal_file =
    let plan = or_usage_error ~flag:"--plan" (Gkm_fault.Fault.of_string plan_str) in
    let spec = org_spec ~degree ~k ~seed org_sel in
    let cfg =
      {
        Gkm.Session.default_config with
        n_target = n;
        ms = 120.0;
        ml = 1800.0;
        tp;
        horizon;
        seed;
        org = spec;
      }
    in
    Obs.set_enabled true;
    (* Three runs in one process: reset the registry and journal
       between them so nothing accumulates across repetitions. *)
    let fresh () =
      Metrics.reset_all ();
      Journal.clear Journal.default
    in
    let faulty () =
      fresh ();
      let buf = Buffer.create 4096 in
      Journal.set_sink Journal.default
        (Some
           (fun line ->
             Buffer.add_string buf line;
             Buffer.add_char buf '\n'));
      let r = Gkm.Session.run ~faults:plan cfg in
      Journal.set_sink Journal.default None;
      (r, Buffer.contents buf)
    in
    fresh ();
    let baseline = try Gkm.Session.run cfg with Invalid_argument e -> usage_error e in
    let r1, j1 = faulty () in
    let r2, j2 = faulty () in
    (match journal_file with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc j1;
        close_out oc);
    let deterministic = r1 = r2 && j1 = j2 in
    let v = Gkm_conformance.Soak.verdict ~baseline r1 in
    Printf.printf "Chaos run under %s: plan %s (seed %d)\n"
      (Gkm.Organization.spec_name spec)
      (Gkm_fault.Fault.to_string plan)
      seed;
    Printf.printf "  faults injected  %d\n" r1.Gkm.Session.faults_injected;
    Printf.printf "  crash restores   %d\n" r1.Gkm.Session.restores;
    Printf.printf "  resyncs          %d\n" r1.Gkm.Session.resyncs;
    Printf.printf "  rejoins          %d\n" r1.Gkm.Session.rejoins;
    Printf.printf "  verified         %b\n" r1.Gkm.Session.verified;
    Printf.printf "  recovered        %b\n" r1.Gkm.Session.recovered;
    Printf.printf "  deterministic    %b (re-run byte-identical, %d journal bytes)\n"
      deterministic (String.length j1);
    (match v.converged with
    | Some converged ->
        Printf.printf "  dek convergence  %b (vs fault-free baseline)\n" converged
    | None ->
        Printf.printf "  dek convergence  skipped (%d rejoins re-draw keys)\n"
          r1.Gkm.Session.rejoins);
    let ok = baseline.Gkm.Session.verified && v.ok && deterministic in
    if not ok then exit 1
  in
  let plan_arg =
    Arg.(
      value & opt string default_plan
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: ';'-separated $(b,crash@K), $(b,loss@T0-T1:R)[$(b,:M,..)], \
             $(b,partition@T0-T1:M,..|*), $(b,drop@K:M), $(b,delay@K:M:D), $(b,corrupt@K), \
             $(b,desync@K:M).")
  in
  let org_arg =
    Arg.(
      value & opt string "tt"
      & info [ "org" ] ~docv:"ORG"
          ~doc:
            "Group organization: $(b,one)|$(b,qt)|$(b,tt)|$(b,pt), $(b,loss:T1,..), \
             $(b,random:K), or $(b,composed)[$(b,:KIND)[$(b,@T1,..)]].")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a session under a fault-injection plan (plus a fault-free baseline and a \
          byte-identical re-run), checking recovery, determinism and post-recovery DEK \
          convergence; nonzero exit on any failure")
    Term.(
      const run $ plan_arg $ org_arg $ group_size_arg 60 $ tp_arg ()
      $ horizon_arg ~default:600.0 "Session length (s)."
      $ degree_arg $ k_arg $ seed_arg
      $ journal_arg "Write the faulty run's complete JSONL event journal to $(docv).")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* Shared by serve and join: "tcp" | "udp" | "udp:ADDR:PORT", yielding
   the multicast group for the UDP data plane (None = pure TCP). *)
let parse_transport s =
  if s = "tcp" then Ok None
  else if s = "udp" then Result.map Option.some (Gkm_netd.Mcast.group_of_string "")
  else if String.length s >= 4 && String.sub s 0 4 = "udp:" then
    Result.map Option.some
      (Gkm_netd.Mcast.group_of_string (String.sub s 4 (String.length s - 4)))
  else Error (Printf.sprintf "%S: expected tcp or udp[:ADDR:PORT]" s)

(* Shared by serve and join: the parsed --transport group (None = pure
   TCP); a malformed selector is a usage error. *)
let transport_term =
  let arg =
    Arg.(
      value & opt string "tcp"
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Rekey data plane: $(b,tcp) (unicast, default) or $(b,udp)[:ADDR:PORT] — sealed \
             rekey generations multicast to the group (default 239.255.77.7:7677) while TCP \
             remains the control channel. Server and clients must agree.")
  in
  Term.(const (fun s -> or_usage_error ~flag:"--transport" (parse_transport s)) $ arg)

let serve_cmd =
  let module Loop = Gkm_netd.Loop in
  let module Server = Gkm_netd.Server in
  let run host port org_sel tp resync_budget max_clients degree k domains group intervals
      duration journal_file port_file stats_file seed =
    let transport = match group with None -> Server.Tcp | Some group -> Server.udp group in
    let spec = org_spec ~degree ~k ~seed org_sel in
    let oc =
      match journal_file with
      | None -> None
      | Some path ->
          Gkm_obs.Obs.set_enabled true;
          let oc = open_out path in
          Gkm_obs.Journal.attach_channel Gkm_obs.Journal.default oc;
          Some oc
    in
    let cfg =
      {
        Server.default_config with
        host;
        port;
        org = spec;
        tp;
        resync_budget;
        max_clients;
        ticket_seed = seed + 2;
        domains;
        transport;
      }
    in
    let loop = Loop.create () in
    let srv =
      try Server.create ~loop cfg with
      | Invalid_argument e -> usage_error e
      | Unix.Unix_error (err, _, _) ->
          Printf.eprintf "gkm serve: cannot listen on %s:%d: %s\n" host port
            (Unix.error_message err);
          exit 1
    in
    (* Written once the socket is bound: with --port 0 this is how a
       spawning process (gkm conform --interop) learns where to dial. *)
    (match port_file with
    | None -> ()
    | Some f ->
        let oc = open_out f in
        Printf.fprintf oc "%d\n" (Server.port srv);
        close_out oc);
    Printf.printf "gkm serve: %s organization on %s:%d, Tp=%gs%s%s (Ctrl-C to stop)\n%!"
      (Gkm.Organization.spec_name spec)
      host (Server.port srv) tp
      (if domains >= 2 then Printf.sprintf ", %d fan-out domains" domains else "")
      (match transport with
      | Server.Tcp -> ""
      | Server.Udp group ->
          Printf.sprintf ", UDP data plane on %s" (Gkm_netd.Mcast.group_to_string group));
    let stop_flag = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_flag := true))
     with Invalid_argument _ | Sys_error _ -> ());
    let t0 = Unix.gettimeofday () in
    Loop.run loop ~until:(fun () ->
        !stop_flag
        || (match intervals with Some n -> Server.rekey_no srv >= n | None -> false)
        || match duration with Some d -> Unix.gettimeofday () -. t0 >= d | None -> false);
    let st = Server.stats srv in
    Printf.printf
      "gkm serve: done — %d rekeys (%d packets, %d wraps left to unicast), %d joins, %d leaves, \
       %d members\n"
      st.rekeys st.rekey_packets st.wraps_pruned st.joins st.leaves (Server.org_size srv);
    Printf.printf
      "  recovery: %d nacks, %d nack frames, %d resyncs (+%d migration unicasts); \
       backpressure: %d soft skips, %d slow + %d grace evictions; %d protocol errors\n"
      st.nacks st.nack_frames st.resyncs st.migrations st.soft_skips st.evictions_slow
      st.evictions_grace st.protocol_errors;
    Printf.printf "  tickets: %d issued (%d B); rejoins: %d 0-RTT + %d full, %d rejected\n"
      st.tickets_issued st.ticket_bytes st.rejoins_0rtt st.rejoins_full st.ticket_rejects;
    Printf.printf "  traffic: %d B out, %d B in\n" (Server.bytes_tx srv) (Server.bytes_rx srv);
    (match transport with
    | Server.Tcp -> ()
    | Server.Udp _ ->
        Printf.printf
          "  mcast: %d datagrams + %d heartbeats (%d B), %d generations fell back to \
           unicast\n"
          st.mcast_datagrams st.mcast_heartbeats st.mcast_bytes st.mcast_fallback_unicast);
    (* Machine-readable mirror of the summary above, for the interop
       harness's server-side assertions. *)
    (match stats_file with
    | None -> ()
    | Some f ->
        let module J = Gkm_obs.Jsonx in
        let oc = open_out f in
        output_string oc
          (J.obj
             [
               ("port", J.int (Server.port srv));
               ("org_size", J.int (Server.org_size srv));
               ("domains", J.int domains);
               ("accepts", J.int st.accepts);
               ("joins", J.int st.joins);
               ("leaves", J.int st.leaves);
               ("rekeys", J.int st.rekeys);
               ("rekey_packets", J.int st.rekey_packets);
               ("wraps_pruned", J.int st.wraps_pruned);
               ("nacks", J.int st.nacks);
               ("nack_frames", J.int st.nack_frames);
               ("resyncs", J.int st.resyncs);
               ("resyncs_denied", J.int st.resyncs_denied);
               ("migrations", J.int st.migrations);
               ("soft_skips", J.int st.soft_skips);
               ("evictions_slow", J.int st.evictions_slow);
               ("evictions_grace", J.int st.evictions_grace);
               ("protocol_errors", J.int st.protocol_errors);
               ("tickets_issued", J.int st.tickets_issued);
               ("ticket_bytes", J.int st.ticket_bytes);
               ("rejoins_0rtt", J.int st.rejoins_0rtt);
               ("rejoins_full", J.int st.rejoins_full);
               ("ticket_rejects", J.int st.ticket_rejects);
               ("bytes_tx", J.int (Server.bytes_tx srv));
               ("bytes_rx", J.int (Server.bytes_rx srv));
               ( "transport",
                 J.str (match transport with Server.Tcp -> "tcp" | Server.Udp _ -> "udp") );
               ("mcast_datagrams", J.int st.mcast_datagrams);
               ("mcast_bytes", J.int st.mcast_bytes);
               ("mcast_fallback_unicast", J.int st.mcast_fallback_unicast);
               ("mcast_heartbeats", J.int st.mcast_heartbeats);
             ]);
        output_char oc '\n';
        close_out oc);
    (if domains >= 2 then
       let tx = Server.tx_per_domain srv in
       Printf.printf "  tx by domain: tick %d B; lanes %s\n" tx.(0)
         (String.concat ", "
            (List.tl (Array.to_list (Array.mapi (fun i b -> Printf.sprintf "#%d %d B" i b) tx)))));
    Server.stop srv;
    (match oc with
    | None -> ()
    | Some oc ->
        Gkm_obs.Journal.set_sink Gkm_obs.Journal.default None;
        close_out oc)
  in
  let org_arg =
    Arg.(
      value & opt string "tt"
      & info [ "org" ] ~docv:"ORG"
          ~doc:
            "Group organization: $(b,one)|$(b,qt)|$(b,tt)|$(b,pt), $(b,loss:T1,..), \
             $(b,random:K), or $(b,composed).")
  in
  let resync_budget_arg =
    Arg.(
      value & opt int 64
      & info [ "resync-budget" ] ~docv:"N"
          ~doc:
            "Recovery resyncs served per connection before the client is dropped with a \
             protocol error (NACK-flood amplification brake).")
  in
  let max_clients_arg =
    Arg.(value & opt int 4096 & info [ "max-clients" ] ~doc:"Connection limit.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"K"
          ~doc:
            "REKEY fan-out writers. 1 is the single-threaded server; from 2 up, $(docv) \
             worker domains (lanes) each write the encode-once rekey frames to one slice \
             of the recipients while the tick thread waits. Backpressure, protocol logic \
             and every connection stay on the tick thread either way.")
  in
  let intervals_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "intervals" ] ~docv:"N" ~doc:"Stop after $(docv) effective rekeys.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound TCP port to $(docv) once listening — with $(b,--port 0) this \
             is how a spawning process learns where to dial.")
  in
  let stats_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"FILE"
          ~doc:"Write the final server statistics to $(docv) as one JSON object on exit.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:common_exits
       ~doc:
         "Serve a live group organization over a TCP socket: batched admissions, \
          optionally multicore REKEY fan-out or a UDP multicast data plane, \
          NACK recovery from the original sealed frames, authenticated RESYNC, two-tier \
          backpressure")
    Term.(
      const run $ host_arg "Bind address."
      $ port_arg "TCP port (0 picks one)."
      $ org_arg
      $ tp_arg ~default:1.0 ()
      $ resync_budget_arg $ max_clients_arg $ degree_arg $ k_arg $ domains_arg
      $ transport_term $ intervals_arg
      $ duration_arg "Stop after $(docv) seconds."
      $ journal_arg "Enable observability and stream the JSONL event journal to $(docv)."
      $ port_file_arg $ stats_file_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* join                                                                *)

let join_cmd =
  let module Loop = Gkm_netd.Loop in
  let module Client = Gkm_netd.Client in
  let run host port count cls loss drop rekeys duration verbose ticket_file ticket_out mcast
      seed =
    if count < 1 then usage_error "--count must be at least 1";
    if ticket_file <> None && count > 1 then
      usage_error "--ticket resumes one member: --count must be 1";
    let resume =
      match ticket_file with
      | None -> None
      | Some path ->
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let blob = really_input_string ic len in
          close_in ic;
          Some (Bytes.of_string blob)
    in
    let loop = Loop.create () in
    let mk i =
      Client.connect ~loop
        {
          (Client.config ~port) with
          host;
          cls;
          loss;
          seed = seed + i;
          resume = (if i = 0 then resume else None);
          drop = (if drop > 0.0 then Some (Gkm_net.Loss_model.bernoulli drop) else None);
          mcast;
        }
    in
    let clients = List.init count mk in
    if verbose then
      List.iteri
        (fun i c ->
          Client.on_dek c (fun ~rekey_no ~fp ->
              Printf.printf "client %d: rekey %d -> DEK %s\n%!" i rekey_no fp))
        clients;
    let stop_flag = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_flag := true))
     with Invalid_argument _ | Sys_error _ -> ());
    let t0 = Unix.gettimeofday () in
    Loop.run loop ~until:(fun () ->
        !stop_flag
        || List.for_all
             (fun c ->
               Client.phase c = Client.Closed
               || match rekeys with Some n -> Client.rekeys_completed c >= n | None -> false)
             clients
        || match duration with Some d -> Unix.gettimeofday () -. t0 >= d | None -> false);
    (* With --ticket-out the member means to come back: save the
       resumption state and drop the connection without LEAVE. The
       ticket never goes stale; it stays valid for a later
       `gkm join --ticket` as long as the membership does, which the
       server keeps for resync_grace rekeys. *)
    (match (ticket_out, clients) with
    | Some path, c :: _ -> (
        match Client.export_resumption c with
        | Some blob ->
            let oc = open_out_bin path in
            output_bytes oc blob;
            close_out oc;
            Client.kill c;
            Printf.printf "client 0: resumption state written to %s\n" path
        | None ->
            Printf.printf "client 0: no ticket to export (not admitted, or none issued yet)\n")
    | _ -> ());
    List.iter (fun c -> if Client.is_member c then Client.leave c) clients;
    let deadline = Unix.gettimeofday () +. 5.0 in
    Loop.run loop ~until:(fun () ->
        List.for_all (fun c -> Client.phase c = Client.Closed) clients
        || Unix.gettimeofday () > deadline);
    let failed = ref 0 in
    List.iteri
      (fun i c ->
        (match Client.last_error c with
        | Some e ->
            incr failed;
            Printf.printf "client %d: FAILED (%s)\n" i e
        | None ->
            let dek =
              match List.rev (Client.dek_trace c) with
              | (no, fp) :: _ -> Printf.sprintf "DEK %s at rekey %d" fp no
              | [] -> "no DEK observed"
            in
            Printf.printf
              "client %d: member %d, %d rekeys, %d rejoins, %d nacks, %d resyncs%s, %s\n" i
              (Client.member c) (Client.rekeys_completed c) (Client.rejoins c)
              (Client.nacks_sent c) (Client.resyncs c)
              (if mcast = None then ""
               else Printf.sprintf ", %d mcast datagrams" (Client.mcast_datagrams_rx c))
              dek);
        ignore i)
      clients;
    if !failed > 0 then exit 1
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc:"Number of clients to run.")
  in
  let cls_arg =
    enum_arg
      ~names:[ ("short", `Short); ("long", `Long) ]
      ~default:`Long ~doc:"Duration class reported at join (short, long)." "class"
  in
  let loss_arg =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~doc:"Loss rate reported at join (placement signal).")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Simulate Bernoulli($(docv)) receive loss on REKEY records to exercise \
                NACK recovery; a record is drawn until its rekey is NACKed, so the \
                NACK's answer always arrives.")
  in
  let rekeys_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rekeys" ] ~docv:"N" ~doc:"Leave after completing $(docv) rekeys.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every DEK change.")
  in
  let ticket_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "ticket" ] ~docv:"FILE"
          ~doc:
            "Resume from the resumption state in $(docv) (written by $(b,--ticket-out)): \
             rejoin as the saved member via a 0-RTT ticket REJOIN instead of joining \
             fresh. Implies $(b,--count) 1.")
  in
  let ticket_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ticket-out" ] ~docv:"FILE"
          ~doc:
            "On exit, write client 0's resumption state (member id, individual key and \
             ticket) to $(docv) and disconnect WITHOUT leaving, so a later \
             $(b,gkm join --ticket) $(docv) can resume the membership. The ticket never \
             goes stale; the server keeps a disconnected membership for 50 rekeys, after \
             which the saved state is refused as evicted. The file holds the secret \
             individual key — protect it accordingly.")
  in
  Cmd.v
    (Cmd.info "join" ~exits:common_exits
       ~doc:
         "Join one or more wire clients to a running $(b,gkm serve) instance and track the \
          group key until $(b,--rekeys)/$(b,--duration) or Ctrl-C")
    Term.(
      const run $ host_arg "Server address." $ port_arg "Server TCP port." $ count_arg
      $ cls_arg $ loss_arg $ drop_arg $ rekeys_arg
      $ duration_arg "Leave after $(docv) seconds."
      $ verbose_arg $ ticket_arg $ ticket_out_arg $ transport_term $ seed_arg)

(* ------------------------------------------------------------------ *)
(* conform                                                             *)

let conform_cmd =
  let module Fuzzer = Gkm_conformance.Fuzzer in
  let module Corpus = Gkm_conformance.Corpus in
  let module Interop = Gkm_conformance.Interop in
  let module Soak = Gkm_conformance.Soak in
  let int_list ~flag s =
    List.map
      (fun part ->
        match int_of_string_opt (String.trim part) with
        | Some v when v > 0 -> v
        | _ -> usage_error (Printf.sprintf "%s: '%s' is not a positive integer list" flag s))
      (String.split_on_char ',' s)
  in
  let str_list s = List.map String.trim (String.split_on_char ',' s) in
  let run fuzz interop soak frames fuzz_seconds corpus_file crashers_out scratch
      domains_str orgs_str org n tp intervals budget jsonl_file seed =
    if not (fuzz || interop || soak) then
      usage_error "gkm conform: pick at least one of --fuzz, --interop, --soak";
    let failed = ref false in
    (if fuzz then begin
       let corpus =
         match corpus_file with
         | None -> []
         | Some path -> or_usage_error ~flag:"--corpus" (Corpus.load path)
       in
       Printf.printf "conform fuzz: %d frames, seed %d, %d corpus entries\n%!" frames
         seed (List.length corpus);
       let progress r =
         Printf.printf "  %d/%d frames, %d accepted, %d failures (%.1fs)\n%!"
           r.Fuzzer.generated frames r.Fuzzer.accepted
           (List.length r.Fuzzer.failures)
           r.Fuzzer.elapsed_s
       in
       let r =
         Fuzzer.run ~seed ~frames ?max_seconds:fuzz_seconds ~corpus ?crashers_out
           ~progress ()
       in
       Format.printf "%a@." Fuzzer.pp_report r;
       if r.Fuzzer.failures <> [] then begin
         failed := true;
         match crashers_out with
         | Some path ->
             Printf.printf "conform fuzz: minimized crashers appended to %s\n%!" path
         | None -> ()
       end
     end);
    (if interop then begin
       let domains_list = int_list ~flag:"--domains" domains_str in
       let orgs = str_list orgs_str in
       Printf.printf "conform interop: orgs [%s] x domains [%s]\n%!"
         (String.concat "; " orgs) domains_str;
       let cases =
         Interop.sweep ~scratch ~domains_list ~orgs ~exe:Sys.executable_name ~seed ()
       in
       List.iter (fun c -> Format.printf "%a%!" Interop.pp_case c) cases;
       if List.exists (fun (c : Interop.case_result) -> not c.ok) cases then
         failed := true
     end);
    (if soak then begin
       let cfg =
         { Soak.default with org; n; tp; intervals; budget; seed }
       in
       let oc =
         match jsonl_file with None -> None | Some path -> Some (open_out path)
       in
       let emit line =
         print_endline line;
         match oc with
         | Some oc ->
             output_string oc line;
             output_char oc '\n';
             flush oc
         | None -> ()
       in
       Printf.printf "conform soak: org=%s N=%d, %d intervals/iter, %.0fs budget\n%!"
         org n intervals budget;
       let r = try Soak.run ~emit cfg with Invalid_argument e -> usage_error e in
       (match oc with Some oc -> close_out oc | None -> ());
       Printf.printf "conform soak: %d iterations in %.1fs: %s\n%!"
         (List.length r.Soak.iterations)
         r.Soak.elapsed
         (if r.Soak.ok then "ok" else "FAIL");
       if not r.Soak.ok then failed := true
     end);
    if !failed then exit 1
  in
  let fuzz_arg =
    Arg.(value & flag & info [ "fuzz" ] ~doc:"Run the grammar-aware decoder fuzz lane.")
  in
  let interop_arg =
    Arg.(
      value & flag
      & info [ "interop" ]
          ~doc:
            "Run the multi-process interop lane: spawn real $(b,gkm serve) instances \
             and drive heterogeneous client cohorts against them.")
  in
  let soak_arg =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:
            "Run the chaos soak lane: repeated faulted sessions at the big \
             configuration until the wall-clock budget expires.")
  in
  let frames_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "frames" ] ~docv:"N" ~doc:"Fuzz generation budget (frames).")
  in
  let fuzz_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "fuzz-seconds" ] ~docv:"S" ~doc:"Stop fuzzing early after $(docv) seconds.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Crasher corpus to replay before generating (test/wire/fuzz_corpus.txt).")
  in
  let crashers_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "crashers-out" ] ~docv:"FILE"
          ~doc:"Append minimized crashers to $(docv) in corpus format for check-in.")
  in
  let scratch_arg =
    Arg.(
      value & opt string "."
      & info [ "scratch" ] ~docv:"DIR"
          ~doc:"Directory for the interop lane's port/stats scratch files.")
  in
  let domains_arg =
    Arg.(
      value & opt string "1,2,4"
      & info [ "domains" ] ~docv:"K,.."
          ~doc:"Comma-separated $(b,--domains) values to sweep in the interop lane.")
  in
  let orgs_arg =
    Arg.(
      value & opt string "tt,composed"
      & info [ "orgs" ] ~docv:"ORG,.."
          ~doc:"Comma-separated organization selectors to sweep in the interop lane.")
  in
  let org_arg =
    Arg.(
      value & opt string "composed"
      & info [ "org" ] ~docv:"ORG" ~doc:"Organization for the soak lane.")
  in
  let n_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Soak steady-state group size.")
  in
  let intervals_arg =
    Arg.(
      value & opt int 10
      & info [ "intervals" ] ~docv:"I" ~doc:"Simulated rekey intervals per soak iteration.")
  in
  let budget_arg =
    Arg.(
      value & opt float 600.0
      & info [ "budget" ] ~docv:"S" ~doc:"Soak wall-clock budget (seconds).")
  in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also write the soak verdict JSONL stream to $(docv).")
  in
  Cmd.v
    (Cmd.info "conform" ~exits:common_exits
       ~doc:
         "Conformance lanes: grammar-aware wire fuzzing ($(b,--fuzz)), multi-process \
          interop against real $(b,gkm serve) instances ($(b,--interop)), and the \
          chaos soak at the big configuration ($(b,--soak)). Exits 0 when every \
          selected lane passes, 1 on any failed verdict, 2 on invalid configuration.")
    Term.(
      const run $ fuzz_arg $ interop_arg $ soak_arg $ frames_arg $ fuzz_seconds_arg
      $ corpus_arg $ crashers_arg $ scratch_arg $ domains_arg $ orgs_arg $ org_arg
      $ n_arg
      $ tp_arg ~doc:"Soak rekey interval (simulated s)." ()
      $ intervals_arg $ budget_arg $ jsonl_arg $ seed_arg)

(* ------------------------------------------------------------------ *)

(* The single source of truth for the sub-command set: the group, the
   COMMANDS overview table and the manual all derive from here. *)
let command_table =
  [
    (partition_cmd, "two-partition rekeying costs, analytic and simulated (Section 3)");
    (loss_cmd, "loss-homogenized key-tree organizations (Section 4)");
    (trace_cmd, "generate and fit two-class membership traces");
    (ne_cmd, "Appendix A batched-rekeying cost model Ne(N, L)");
    (session_cmd, "full engine-driven session under any organization");
    (metrics_cmd, "session with the observability registry and journal dumped");
    (chaos_cmd, "session under a fault plan: recovery, determinism, convergence");
    (serve_cmd, "real rekey server on a TCP socket");
    (join_cmd, "wire clients against a running server");
    (conform_cmd, "conformance lanes: wire fuzzing, interop cohorts, chaos soak");
  ]

let man =
  [
    `S Manpage.s_description;
    `P
      "Reproduction of the ICDCS 2003 group-key-management performance optimizations: \
       two-partition rekeying, loss-homogenized key trees, reliable rekey transports — and \
       a real wire protocol serving them over TCP.";
    `S "COMMAND OVERVIEW";
    `Pre
      (String.concat "\n"
         (List.map
            (fun (c, summary) -> Printf.sprintf "  %-10s %s" (Cmd.name c) summary)
            command_table));
  ]

let cmd =
  Cmd.group
    (Cmd.info "gkm" ~version:"1.0.0" ~exits:common_exits ~man
       ~doc:"Group key management for secure multicast: LKH, two-partition and loss-homogenized \
             key trees, reliable rekey transports")
    (List.map fst command_table)

let () = exit (Cmd.eval cmd)
