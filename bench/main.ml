(* Benchmark harness entry point.

   - `main.exe`                 regenerate every table/figure, run the
                                simulation cross-checks, the ablations,
                                and the microbenchmarks
   - `main.exe figures [IDS..]` just the named artifacts (see --list)
   - `main.exe micro`           just the Bechamel microbenchmarks
   - `main.exe macro`           rekey hot path at production group
                                sizes; writes BENCH_macro.json

   Socket-level numbers (a live server and its members over loopback)
   come from perfbench: `python3 perfbench/run.py --workload
   udp-steady|tcp-rejoin`. *)

open Cmdliner

let run_ids ids =
  match ids with
  | [] ->
      Figures.all_analytic ();
      Figures.all_sim ();
      Figures.all_ablations ();
      `Ok ()
  | ids -> (
      try
        List.iter
          (fun id ->
            match List.assoc_opt id Figures.by_name with
            | Some f -> f ()
            | None -> raise Exit)
          ids;
        `Ok ()
      with Exit ->
        `Error
          ( false,
            Printf.sprintf "unknown figure id; known: %s"
              (String.concat ", " (List.map fst Figures.by_name)) ))

let ids_arg =
  let doc = "Artifacts to regenerate (default: all)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let list_flag =
  let doc = "List the available artifact ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let figures_term =
  let run list ids =
    if list then begin
      List.iter (fun (id, _) -> print_endline id) Figures.by_name;
      `Ok ()
    end
    else run_ids ids
  in
  Term.(ret (const run $ list_flag $ ids_arg))

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures")
    figures_term

let quota_arg =
  let doc = "Per-benchmark time quota in seconds." in
  Arg.(value & opt float 0.5 & info [ "quota" ] ~doc)

let micro_term = Term.(const (fun quota -> Micro.run ~quota ()) $ quota_arg)
let micro_cmd = Cmd.v (Cmd.info "micro" ~doc:"Run the Bechamel microbenchmarks") micro_term

let macro_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_macro.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the JSON results to $(docv).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smoke-test mode: only the N=10000 configuration (for CI).")
  in
  let floor_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "floor" ] ~docv:"FILE"
          ~doc:
            "Read a reference ops/sec floor from $(docv) and fail if measured churn \
             throughput at N=10000 drops more than 2x below it.")
  in
  let intervals_arg =
    Arg.(
      value & opt int 100
      & info [ "intervals" ] ~docv:"I" ~doc:"Steady-state churn intervals per configuration.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run out quick floor_file intervals seed =
    Macro.run ~out ~quick ?floor_file ~intervals ~seed ()
  in
  Cmd.v
    (Cmd.info "macro"
       ~doc:
         "Benchmark the rekey hot path at N up to 10^6 members and write BENCH_macro.json")
    Term.(ret (const run $ out_arg $ quick_arg $ floor_arg $ intervals_arg $ seed_arg))

let default_term =
  Term.(
    ret
      (const (fun () ->
           let r = run_ids [] in
           Micro.run ();
           r)
      $ const ()))

let cmd =
  Cmd.group ~default:default_term
    (Cmd.info "gkm-bench" ~version:"1.0.0"
       ~doc:
         "Regenerate every table and figure of 'Performance Optimizations for Group Key \
          Management Schemes for Secure Multicast' and benchmark the implementation")
    [ figures_cmd; micro_cmd; macro_cmd ]

let () = exit (Cmd.eval cmd)
