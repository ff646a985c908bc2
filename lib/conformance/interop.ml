module Loop = Gkm_netd.Loop
module Client = Gkm_netd.Client
module Mcast = Gkm_netd.Mcast
module Loss_model = Gkm_net.Loss_model
module Netem = Gkm_net.Netem

type transport = Tcp | Udp of { loss : float; reorder : float; dup : float }

type server = {
  exe : string;
  org : string;
  domains : int;
  tp : float;
  resync_budget : int;
  seed : int;
  transport : transport;
}

type case_result = {
  label : string;
  verdicts : Cohort.verdict list;
  stats : (string * int) list;
  ok : bool;
}

let parse_stats_json s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      match String.index_from_opt s (!i + 1) '"' with
      | None -> i := n
      | Some j ->
          let key = String.sub s (!i + 1) (j - !i - 1) in
          let k = ref (j + 1) in
          while !k < n && (s.[!k] = ' ' || s.[!k] = '\t' || s.[!k] = '\n') do
            incr k
          done;
          if !k < n && s.[!k] = ':' then begin
            incr k;
            while !k < n && s.[!k] = ' ' do
              incr k
            done;
            let start = !k in
            if !k < n && s.[!k] = '-' then incr k;
            while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do
              incr k
            done;
            (match int_of_string_opt (String.sub s start (!k - start)) with
            | Some v -> out := (key, v) :: !out
            | None -> ());
            i := !k
          end
          else i := j + 1
    end
    else incr i
  done;
  List.rev !out

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Some s

let spawn_server (s : server) ~group ~port_file ~stats_file =
  let transport_args =
    match (s.transport, group) with
    | Tcp, _ | _, None -> []
    | Udp _, Some g -> [ "--transport"; "udp:" ^ Mcast.group_to_string g ]
  in
  let args =
    Array.of_list
      ([
         s.exe; "serve";
         "--host"; "127.0.0.1";
         "--port"; "0";
         "--org"; s.org;
         "--tp"; Printf.sprintf "%g" s.tp;
         "--resync-budget"; string_of_int s.resync_budget;
         "--domains"; string_of_int s.domains;
         "--port-file"; port_file;
         "--stats-file"; stats_file;
         "--seed"; string_of_int s.seed;
       ]
      @ transport_args)
  in
  let dev_null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid = Unix.create_process s.exe args Unix.stdin dev_null Unix.stderr in
  Unix.close dev_null;
  pid

(* Poll for the port file the child writes once its socket is bound. *)
let wait_port ~port_file ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match read_file port_file with
    | Some s when String.trim s <> "" -> int_of_string_opt (String.trim s)
    | _ ->
        if Unix.gettimeofday () >= deadline then None
        else begin
          ignore (Unix.select [] [] [] 0.05);
          go ()
        end
  in
  go ()

let stop_server pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () >= deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          ignore (Unix.select [] [] [] 0.05);
          reap ()
        end
    | _ -> ()
  in
  (try reap () with Unix.Unix_error _ -> ())

let verdict name ok detail = { Cohort.name; ok; detail }

(* Server-side counter assertions from the stats file: the hostile
   cohorts must be visible in the server's books, and recovery resync
   grants must stay bounded. *)
let stats_verdicts ~resync_budget stats =
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  if stats = [] then [ verdict "server-stats" false "stats file missing or unparsable" ]
  else
    [
      verdict "srv-resync-denial" (get "resyncs_denied" >= 1)
        (Printf.sprintf "resyncs_denied=%d (want >= 1)" (get "resyncs_denied"));
      verdict "srv-resyncs-bounded"
        (get "resyncs" <= resync_budget + 32)
        (Printf.sprintf "resyncs=%d (bound %d)" (get "resyncs") (resync_budget + 32));
      verdict "srv-ticket-lockout" (get "ticket_rejects" >= 2)
        (Printf.sprintf "ticket_rejects=%d (want >= 2: evictee + corrupt)" (get "ticket_rejects"));
      verdict "srv-bearer-rebinds" (get "rejoins_full" >= 2)
        (Printf.sprintf "rejoins_full=%d (want >= 2 replays)" (get "rejoins_full"));
      verdict "srv-protocol-errors" (get "protocol_errors" >= 2)
        (Printf.sprintf "protocol_errors=%d (want >= 2: flood + dead resync)"
           (get "protocol_errors"));
    ]

(* Server-side data-plane counters plus the cross-check against what
   the client herd actually heard on the group. *)
let mcast_verdicts ~rx_total stats =
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  [
    verdict "srv-mcast-datagrams" (get "mcast_datagrams" >= 1)
      (Printf.sprintf "mcast_datagrams=%d (want >= 1)" (get "mcast_datagrams"));
    verdict "srv-mcast-no-fallback"
      (get "mcast_fallback_unicast" = 0)
      (Printf.sprintf "mcast_fallback_unicast=%d (want 0: generations fit one datagram)"
         (get "mcast_fallback_unicast"));
    verdict "mcast-crosscheck"
      (rx_total >= 1 && get "mcast_datagrams" >= 1
      && get "mcast_bytes"
         >= get "mcast_datagrams"
            * Bytes.length
                (Gkm_wire.Frame.encode
                   (Gkm_wire.Msg.Sealed { epoch = 0; seq = 0L; ct = Bytes.empty })))
      (Printf.sprintf "herd heard %d datagrams of the %d (%d B) the server multicast"
         rx_total (get "mcast_datagrams") (get "mcast_bytes"));
  ]

let skip_case label =
  {
    label;
    verdicts =
      [ verdict "udp-skip" true "SKIP: kernel refused the multicast join; udp case not run" ];
    stats = [];
    ok = true;
  }

let run_case ?(scratch = ".") (s : server) =
  let tname = match s.transport with Tcp -> "tcp" | Udp _ -> "udp" in
  let label = Printf.sprintf "%s domains=%d %s" s.org s.domains tname in
  if s.transport <> Tcp && not (Mcast.available ()) then skip_case label
  else begin
    let group =
      match s.transport with
      | Tcp -> None
      | Udp _ -> Some (Mcast.ephemeral_group ~seed:((s.seed * 7) + s.domains))
    in
    let tagbase =
      Printf.sprintf ".gkm-conform-%d-%s-%d-%s" (Unix.getpid ()) s.org s.domains tname
    in
    let port_file = Filename.concat scratch (tagbase ^ ".port") in
    let stats_file = Filename.concat scratch (tagbase ^ ".stats") in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ port_file; stats_file ];
    let pid = spawn_server s ~group ~port_file ~stats_file in
    let finish verdicts stats =
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ port_file; stats_file ];
      { label; verdicts; stats; ok = List.for_all (fun (v : Cohort.verdict) -> v.ok) verdicts }
    in
    match wait_port ~port_file ~timeout:15.0 with
    | None ->
        stop_server pid;
        finish [ verdict "spawn" false "server never wrote its port file" ] []
    | Some port ->
        let loop = Loop.create () in
        let timeout = 20.0 in
        let mcast_fault =
          match s.transport with
          | Tcp -> None
          | Udp u ->
              Some (Netem.cfg ~loss:(Loss_model.bernoulli u.loss) ~reorder:u.reorder ~dup:u.dup ())
        in
        let joiners =
          Cohort.spawn_clients ~loop ~port ~n:6 ?mcast:group ?mcast_fault ~seed:(s.seed + 100) ()
        in
        let lossy =
          match group with
          | None ->
              Cohort.spawn_clients ~loop ~port ~n:3 ~loss:0.25
                ~drop:(Loss_model.bernoulli 0.25) ~seed:(s.seed + 200) ()
          | Some _ ->
              (* On the udp data plane the TCP stream no longer carries
                 rekeys, so the lossy link moves to the
                 datagram receive path; NACK recovery still rides
                 the clean TCP control channel. *)
              Cohort.spawn_clients ~loop ~port ~n:3 ~loss:0.25 ?mcast:group
                ~mcast_fault:(Netem.cfg ~loss:(Loss_model.bernoulli 0.25) ())
                ~seed:(s.seed + 200) ()
        in
        let herd = joiners @ lossy in
        (* Under a lossy data plane a tail-of-quiet-period datagram loss
           is silent until more generations flow, so the convergence
           polls must churn; over tcp the plain await is exact. *)
        let converge ~min_rekey ~name =
          match group with
          | None -> Cohort.await_convergence ~loop ~timeout ~min_rekey ~name herd
          | Some _ ->
              Cohort.converge_with_churn ~loop ~port ~timeout ~min_rekey
                ~seed:(s.seed + 900) ~name herd
        in
        let vs = ref [] in
        let push v = vs := v :: !vs in
        push (Cohort.await_members ~loop ~timeout ~name:"admission" herd);
        push (converge ~min_rekey:1 ~name:"convergence");
        push (Cohort.version_refused ~loop ~port ~timeout);
        push (Cohort.reorder_dup ~loop ~port ?mcast:group ~seed:(s.seed + 400) ~timeout ());
        push (Cohort.nack_flood ~loop ~port ~budget:s.resync_budget ~timeout);
        push (Cohort.evictee_lockout ~loop ~port ~timeout);
        push (Cohort.ticket_replay ~loop ~port ~timeout);
        (* The chaos above must not have disturbed the herd. *)
        push (converge ~min_rekey:3 ~name:"post-chaos");
        let recovered =
          List.exists (fun c -> Client.nacks_sent c > 0 || Client.resyncs c > 0) lossy
        in
        push
          (verdict "lossy-recovery" recovered
             (if recovered then "lossy cohort exercised NACK/RESYNC recovery"
              else "no lossy client ever NACKed or resynced"));
        let rx_total =
          List.fold_left (fun a c -> a + Client.mcast_datagrams_rx c) 0 herd
        in
        List.iter Client.kill herd;
        Loop.close loop;
        stop_server pid;
        let stats =
          match read_file stats_file with Some b -> parse_stats_json b | None -> []
        in
        let srv_vs =
          stats_verdicts ~resync_budget:s.resync_budget stats
          @ (if group = None then [] else mcast_verdicts ~rx_total stats)
        in
        finish (List.rev !vs @ srv_vs) stats
  end

let sweep ?scratch ?(domains_list = [ 1; 2; 4 ]) ?(orgs = [ "tt"; "composed" ]) ~exe ~seed () =
  let tcp_cases =
    List.concat_map
      (fun org ->
        List.map
          (fun domains ->
            run_case ?scratch
              {
                exe; org; domains;
                tp = 0.15;
                resync_budget = 5;
                seed = seed + domains;
                transport = Tcp;
              })
          domains_list)
      orgs
  in
  (* The udp lane re-runs the first org's domains matrix over the
     multicast data plane, each joiner's receive path losing 1% of the
     datagrams (Bernoulli), reordering and duplicating them. Each case
     probes multicast availability itself and reports a visible skip
     verdict where the kernel refuses the group join. *)
  let udp_cases =
    match orgs with
    | [] -> []
    | org :: _ ->
        List.map
          (fun domains ->
            run_case ?scratch
              {
                exe; org; domains;
                tp = 0.15;
                resync_budget = 5;
                seed = seed + 50 + domains;
                transport = Udp { loss = 0.01; reorder = 0.25; dup = 0.25 };
              })
          domains_list
  in
  tcp_cases @ udp_cases

let pp_case fmt c =
  Format.fprintf fmt "case %-22s %s@\n" c.label (if c.ok then "ok" else "FAIL");
  List.iter (fun v -> Format.fprintf fmt "  %a@\n" Cohort.pp_verdict v) c.verdicts
