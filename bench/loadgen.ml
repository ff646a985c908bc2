(* Wire load generator: the full netd stack — server, poll loop and M
   in-process clients — over loopback TCP, measured.

   For each configured (group size, domain count) the harness joins N
   long-lived clients in waves, lets the TT migration storm quiesce,
   then drives [intervals] churned rekey intervals (one join + one
   leave each) while sampling, on every stable client, the
   client-observed rekey latency: the wall-clock moment the client
   completes a rekey (its [on_dek] upcall) minus the server's
   {!Server.tick_time} for that rekey_no. Results go to one JSON
   document (schema gkm.bench.wire/3, default BENCH_wire.json) with
   p50/p99 latency and server bytes/member/interval per row; each row
   carries its [scenario] ("steady" churn, or "reconnect-storm") and
   its [domains]; see the README "Benchmarks" section.

   With [domains >= 2] the server runs its sharded fan-out AND the
   stable clients are spread over the same number of worker domains,
   each with its own event loop — on one core the whole harness is
   serialized behind a single poll loop, so without worker-side
   parallelism the server's shards would just idle behind the
   client-side unseal bottleneck. The [domains = 1] row is the exact
   historical single-threaded harness. Worker domains publish
   membership/progress aggregates through atomics; the coordinator
   never calls into a worker-owned client directly — kills, reconnects
   and leaves travel as jobs to the owning domain.

   With [storm_frac > 0] (--reconnect-storm) each measured interval
   additionally crash-kills that fraction of the stable clients and
   reconnects them; they recover via 0-RTT ticket REJOIN and the row
   reports how the server answered: 0-RTT delta rejoins vs full-path
   rejoins vs RESYNC fallbacks. Under no loss every recovery should be
   a 0-RTT delta — [require_no_full] turns that expectation into a
   non-zero exit (the CI gate). [require_domains_speedup] gates the
   domain sweep: within each (N, scenario), p99 at the highest domain
   count must stay within [speedup_tolerance] x p99 at domains = 1 —
   the tolerance (default 1.2) absorbs scheduler noise on shared CI
   runners, where a single wall-clock run of either side can jitter
   by tens of percent. *)

module Loop = Gkm_netd.Loop
module Server = Gkm_netd.Server
module Client = Gkm_netd.Client
module Mcast = Gkm_netd.Mcast
module Metrics = Gkm_obs.Metrics
module Jsonx = Gkm_obs.Jsonx

type row = {
  n : int;
  domains : int;  (* server fan-out shards AND client worker domains *)
  scenario : string;  (* "steady" | "reconnect-storm" *)
  transport : string;  (* "tcp" | "udp" (multicast data plane) *)
  tp : float;
  intervals : int;  (* churned intervals driven while measuring *)
  rekeys : int;  (* effective rekeys observed in the measured phase *)
  samples : int;  (* client rekey completions measured *)
  p50_ms : float;
  p99_ms : float;
  bytes_per_member_per_interval : float;
  bytes_tx : int;  (* measured phase only *)
  nacks : int;
  resyncs : int;  (* recovery only; routine S->L migrations are separate *)
  migrations : int;
  soft_skips : int;
  reconnects : int;  (* crash-kill + reconnect cycles driven (storm mode) *)
  rejoins_0rtt : int;  (* REJOINs answered with delta keys only *)
  rejoins_full : int;  (* REJOINs answered with the full path *)
  ticket_rejects : int;
  tickets_issued : int;
  ticket_bytes : int;
  mcast_datagrams : int;  (* udp rows: datagrams multicast in the measured phase *)
  mcast_bytes : int;
  mcast_fallback_unicast : int;
  server_tx_bytes_per_rekey : float;
      (* all server egress — TCP plus multicast — per effective rekey.
         The headline scaling number: linear in N over tcp (every
         member gets a unicast copy), ~flat in N over udp (one
         datagram serves the whole group). *)
  wall_s : float;
}

let now () = Unix.gettimeofday ()

let run_until ~tag loop cond =
  let deadline = now () +. 60.0 in
  Loop.run loop ~until:(fun () -> cond () || now () > deadline);
  if not (cond ()) then failwith ("Loadgen: timeout waiting for " ^ tag)

(* No epoch movement for [settle] seconds: the join storm's trailing
   TT migrations have drained and the group is steady. *)
let quiesce ~settle loop srv =
  let last = ref (-1) and since = ref (now ()) in
  run_until ~tag:"quiesce" loop (fun () ->
      let e = Server.epoch srv in
      let t = now () in
      if e <> !last then begin
        last := e;
        since := t;
        false
      end
      else t -. !since > settle)

(* ---------------- client crew ----------------

   The stable clients, owned either by the coordinator's loop
   ([workers| = 0], the historical path) or spread round-robin over
   worker domains, each with a private {!Loop}. Worker-owned clients
   are touched only on their domain: the coordinator submits closures
   to the owner's job queue and reads back only the aggregates each
   worker republishes (atomically) every loop iteration. [pool] slots
   are written once by the owning domain at creation and read by the
   coordinator only after a membership aggregate that counts the new
   client — the atomic publish is the happens-before edge. *)

type worker = {
  w_loop : Loop.t;
  w_mu : Mutex.t;
  w_jobs : (unit -> unit) Queue.t;
  w_stop : bool Atomic.t;
  w_members : int Atomic.t;
  w_closed : int Atomic.t;
  w_min_rekey : int Atomic.t;  (* min last_rekey over its members; max_int if none *)
  mutable w_clients : Client.t list;  (* owning domain only *)
  mutable w_domain : unit Domain.t option;
}

type crew = {
  workers : worker array;  (* empty: clients live on the coordinator loop *)
  main_loop : Loop.t;
  pool : (int * Client.t * bool ref) option array;
      (* slot -> (owner worker or -1, client, squelched) *)
}

let worker_body w =
  while not (Atomic.get w.w_stop) do
    let jobs =
      Mutex.protect w.w_mu (fun () ->
          let acc = ref [] in
          while not (Queue.is_empty w.w_jobs) do
            acc := Queue.pop w.w_jobs :: !acc
          done;
          List.rev !acc)
    in
    List.iter (fun job -> job ()) jobs;
    Loop.step ~max_wait:0.005 w.w_loop;
    let members = ref 0 and closed = ref 0 and minr = ref max_int in
    List.iter
      (fun c ->
        match Client.phase c with
        | Client.Member ->
            incr members;
            let r = Client.last_rekey c in
            if r < !minr then minr := r
        | Client.Closed -> incr closed
        | _ -> ())
      w.w_clients;
    Atomic.set w.w_members !members;
    Atomic.set w.w_closed !closed;
    Atomic.set w.w_min_rekey !minr
  done

let crew_create ~main_loop ~domains ~n =
  let workers =
    if domains < 2 then [||]
    else
      Array.init domains (fun _ ->
          {
            w_loop = Loop.create ();
            w_mu = Mutex.create ();
            w_jobs = Queue.create ();
            w_stop = Atomic.make false;
            w_members = Atomic.make 0;
            w_closed = Atomic.make 0;
            w_min_rekey = Atomic.make max_int;
            w_clients = [];
            w_domain = None;
          })
  in
  let crew = { workers; main_loop; pool = Array.make n None } in
  Array.iter (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_body w))) workers;
  crew

let submit w job = Mutex.protect w.w_mu (fun () -> Queue.add job w.w_jobs)

(* (members, closed, min last_rekey) across the whole crew. *)
let crew_stats crew =
  let members = ref 0 and closed = ref 0 and minr = ref max_int in
  Array.iter
    (function
      | Some (-1, c, _) -> (
          match Client.phase c with
          | Client.Member ->
              incr members;
              let r = Client.last_rekey c in
              if r < !minr then minr := r
          | Client.Closed -> incr closed
          | _ -> ())
      | _ -> ())
    crew.pool;
  Array.iter
    (fun w ->
      members := !members + Atomic.get w.w_members;
      closed := !closed + Atomic.get w.w_closed;
      let r = Atomic.get w.w_min_rekey in
      if r < !minr then minr := r)
    crew.workers;
  (!members, !closed, !minr)

let crew_spawn crew ~mk slot =
  if Array.length crew.workers = 0 then begin
    let sq = ref false in
    crew.pool.(slot) <- Some (-1, mk crew.main_loop sq, sq)
  end
  else begin
    let wi = slot mod Array.length crew.workers in
    let w = crew.workers.(wi) in
    submit w (fun () ->
        let sq = ref false in
        let c = mk w.w_loop sq in
        w.w_clients <- c :: w.w_clients;
        crew.pool.(slot) <- Some (wi, c, sq))
  end

(* Run [f client] on the slot's owner: inline for coordinator-owned
   clients, as a job for worker-owned ones. [squelch] additionally
   drops the client out of latency sampling first (same domain as the
   on_dek upcall, so a plain ref suffices). *)
let crew_on crew ?(squelch = false) slot f =
  match crew.pool.(slot) with
  | None -> invalid_arg "crew_on: slot not yet populated"
  | Some (-1, c, sq) ->
      if squelch then sq := true;
      f c
  | Some (wi, c, sq) ->
      submit crew.workers.(wi) (fun () ->
          if squelch then sq := true;
          f c)

let crew_stop crew =
  Array.iter
    (fun w ->
      Atomic.set w.w_stop true;
      (match w.w_domain with Some d -> Domain.join d | None -> ());
      Loop.close w.w_loop)
    crew.workers

(* ---------------- one measured configuration ---------------- *)

let journal_attached = ref false

let run_config ~seed ~n ~domains ~tp ~intervals ~storm_frac ~transport =
  (match Sys.getenv_opt "GKM_STORM_JOURNAL" with
  | Some path when not !journal_attached ->
      journal_attached := true;
      Gkm_obs.Obs.set_enabled true;
      let oc = open_out path in
      at_exit (fun () -> close_out_noerr oc);
      Gkm_obs.Journal.attach_channel Gkm_obs.Journal.default oc
  | _ -> ());
  let loop = Loop.create () in
  (* Per-config ephemeral group: concurrent harnesses (and successive
     configs in one sweep) must not hear each other's datagrams. *)
  let group =
    if transport = "udp" then
      Some (Mcast.ephemeral_group ~seed:(seed lxor ((n * 31) + domains)))
    else None
  in
  let srv_transport =
    match group with None -> Server.Tcp | Some g -> Server.udp g
  in
  let srv =
    Server.create ~loop
      { Server.default_config with port = 0; tp; domains; transport = srv_transport }
  in
  let port = Server.port srv in
  let reg = Metrics.create () in
  let h_lat = Metrics.Histogram.v ~registry:reg "wire.rekey_latency_ms" in
  let measuring = Atomic.make false in
  let samples = Atomic.make 0 in
  let crew = crew_create ~main_loop:loop ~domains ~n in
  (* Once a client has been crash-killed its later DEK installs include
     dead time and ticket recovery — not fan-out latency — so it stops
     contributing latency samples for good ([sq], owner-domain only). *)
  let mk slot wloop sq =
    let c =
      Client.connect ~loop:wloop
        { (Client.config ~port) with seed = seed + slot; mcast = group }
    in
    Client.on_dek c (fun ~rekey_no ~fp:_ ->
        if Atomic.get measuring && not !sq then
          match Server.tick_time srv ~rekey_no with
          | Some t0 ->
              Atomic.incr samples;
              Metrics.Histogram.observe h_lat ((now () -. t0) *. 1e3)
          | None -> ());
    c
  in
  (* Join in waves: a single burst of N SYNs would overflow the listen
     backlog and stall on kernel retries. *)
  let wave = 100 in
  let rec join_waves k =
    if k < n then begin
      let batch = min wave (n - k) in
      for i = 0 to batch - 1 do
        crew_spawn crew ~mk:(mk (k + i)) (k + i)
      done;
      run_until ~tag:"wave join" loop (fun () ->
          let members, _, _ = crew_stats crew in
          members >= k + batch);
      join_waves (k + wave)
    end
  in
  join_waves 0;
  quiesce ~settle:(10.0 *. tp) loop srv;
  (* Measured phase: churners are plain clients on the coordinator's
     loop (no latency sampling — a join-time DEK install is not a
     fan-out rekey). *)
  let st = Server.stats srv in
  let rekeys0 = st.rekeys and tx0 = Server.bytes_tx srv in
  let nacks0 = st.nacks and resyncs0 = st.resyncs and skips0 = st.soft_skips in
  let migrations0 = st.migrations in
  let r0_0 = st.rejoins_0rtt
  and rf_0 = st.rejoins_full
  and trej0 = st.ticket_rejects
  and tiss0 = st.tickets_issued
  and tb0 = st.ticket_bytes in
  let md0 = st.mcast_datagrams
  and mb0 = st.mcast_bytes
  and mf0 = st.mcast_fallback_unicast in
  Atomic.set measuring true;
  let t0 = now () in
  let churner = ref None in
  (* Storm mode: every interval, crash-kill this many stable members
     and reconnect them. Round-robin, so 25 intervals at the default
     fraction exercise frac*n*25 distinct reconnects. *)
  let storm_k =
    if storm_frac <= 0.0 then 0
    else max 1 (int_of_float ((storm_frac *. float_of_int n) +. 0.5))
  in
  let cursor = ref 0 in
  let reconnects = ref 0 in
  for i = 0 to intervals - 1 do
    (* Crash-kill this interval's victims at the quiet point between
       churn events, and only after each victim's connection is
       provably drained. The aggregate gate (everyone at the server's
       rekey_no) is too weak at --domains >= 2: the shard flushers run
       asynchronously, so the ticket reissue that rode along with the
       tick can still sit in a shard's write queue when the aggregate
       looks quiet — killing then loses the in-flight ticket and turns
       the intended 0-RTT reconnect into a legitimately-full rejoin,
       which is a different scenario. [Client.drain]'s PING/PONG FIFO
       barrier proves per victim that everything enqueued before it
       (the rekey tail and the ticket) has been received. *)
    if storm_k > 0 then begin
      run_until ~tag:"storm gate" loop (fun () ->
          let members, _, minr = crew_stats crew in
          members = n && minr >= Server.rekey_no srv);
      let victims =
        List.init storm_k (fun _ ->
            let v = !cursor mod n in
            incr cursor;
            v)
      in
      let drained = Atomic.make 0 in
      List.iter
        (fun v ->
          crew_on crew ~squelch:true v (fun c ->
              Client.drain c (fun () ->
                  if Gkm_obs.Obs.enabled () then
                    Gkm_obs.Journal.record ~time:(Unix.gettimeofday ()) "bench.kill"
                      [ ("slot", Gkm_obs.Journal.Int v) ];
                  Client.kill c;
                  Atomic.incr drained)))
        victims;
      (* Every kill must be visible (all drains fired, post-kill
         aggregate) before the rejoin gate below, or a stale
         members = n could pass early. *)
      run_until ~tag:"victims drained+dead" loop (fun () ->
          Atomic.get drained = storm_k
          &&
          let members, _, _ = crew_stats crew in
          members <= n - storm_k);
      List.iter
        (fun v ->
          crew_on crew v (fun c ->
              if Gkm_obs.Obs.enabled () then
                Gkm_obs.Journal.record ~time:(Unix.gettimeofday ()) "bench.reconnect"
                  [ ("slot", Gkm_obs.Journal.Int v) ];
              Client.reconnect c);
          incr reconnects)
        victims;
      run_until ~tag:"victims rejoined" loop (fun () ->
          let members, _, _ = crew_stats crew in
          members = n)
    end;
    let c =
      Client.connect ~loop
        { (Client.config ~port) with seed = seed + n + i; mcast = group }
    in
    (match !churner with Some old -> Client.leave old | None -> ());
    churner := Some c;
    let target = Server.epoch srv in
    (* Wait until the organization settles — this interval's join AND
       the previous churner's leave consumed, the join acknowledged
       client-side — not just for one epoch boundary. Two distinct
       hazards hide behind a weaker gate: a still-queued leave fires
       its reshaping tick during the NEXT interval's kill window, and
       [Client.leave] on a churner that has not yet processed its
       admission degrades to a crash-kill whose member then lingers in
       the S-partition until an S->L migration reshapes the tree at an
       arbitrary later tick. Either way a drained victim's ticket
       presents a digest the tree no longer has — a legitimately-full
       rejoin the no-full gate would misread as a lost ticket. Settled
       size is the n stable members plus exactly the live churner. *)
    run_until ~tag:"churned interval" loop (fun () ->
        Server.epoch srv > target && Server.org_size srv = n + 1 && Client.is_member c)
  done;
  (match !churner with Some old -> Client.leave old | None -> ());
  (* Let every stable client finish the last measured rekey before
     reading the histogram. *)
  quiesce ~settle:(10.0 *. tp) loop srv;
  let last = Server.rekey_no srv in
  (* >= not =: a trailing migration tick can move the server past
     [last] while stragglers catch up, and clients track the live
     counter, not our snapshot. *)
  run_until ~tag:"catch-up" loop (fun () ->
      let members, _, minr = crew_stats crew in
      members = n && minr >= last);
  Atomic.set measuring false;
  let wall_s = now () -. t0 in
  let st = Server.stats srv in
  let rekeys = st.rekeys - rekeys0 in
  let bytes_tx = Server.bytes_tx srv - tx0 in
  let mcast_bytes = st.mcast_bytes - mb0 in
  let row =
    {
      n;
      domains;
      scenario = (if storm_k > 0 then "reconnect-storm" else "steady");
      transport;
      tp;
      intervals;
      rekeys;
      samples = Atomic.get samples;
      p50_ms = Metrics.Histogram.quantile h_lat 0.5;
      p99_ms = Metrics.Histogram.quantile h_lat 0.99;
      bytes_per_member_per_interval =
        (if rekeys = 0 then 0.0 else float_of_int bytes_tx /. float_of_int n /. float_of_int rekeys);
      bytes_tx;
      nacks = st.nacks - nacks0;
      resyncs = st.resyncs - resyncs0;
      migrations = st.migrations - migrations0;
      soft_skips = st.soft_skips - skips0;
      reconnects = !reconnects;
      rejoins_0rtt = st.rejoins_0rtt - r0_0;
      rejoins_full = st.rejoins_full - rf_0;
      ticket_rejects = st.ticket_rejects - trej0;
      tickets_issued = st.tickets_issued - tiss0;
      ticket_bytes = st.ticket_bytes - tb0;
      mcast_datagrams = st.mcast_datagrams - md0;
      mcast_bytes;
      mcast_fallback_unicast = st.mcast_fallback_unicast - mf0;
      server_tx_bytes_per_rekey =
        (if rekeys = 0 then 0.0
         else float_of_int (bytes_tx + mcast_bytes) /. float_of_int rekeys);
      wall_s;
    }
  in
  for slot = 0 to n - 1 do
    crew_on crew slot Client.leave
  done;
  let deadline = now () +. 10.0 in
  Loop.run loop ~until:(fun () ->
      let _, closed, _ = crew_stats crew in
      closed = n || now () > deadline);
  crew_stop crew;
  Server.stop srv;
  Loop.close loop;
  row

let json_of_row r =
  Jsonx.obj
    [
      ("n", Jsonx.int r.n);
      ("domains", Jsonx.int r.domains);
      ("scenario", Jsonx.str r.scenario);
      ("transport", Jsonx.str r.transport);
      ("tp_s", Jsonx.float r.tp);
      ("intervals", Jsonx.int r.intervals);
      ("rekeys", Jsonx.int r.rekeys);
      ("latency_samples", Jsonx.int r.samples);
      ("rekey_latency_p50_ms", Jsonx.float r.p50_ms);
      ("rekey_latency_p99_ms", Jsonx.float r.p99_ms);
      ("bytes_per_member_per_interval", Jsonx.float r.bytes_per_member_per_interval);
      ("bytes_tx", Jsonx.int r.bytes_tx);
      ("nacks", Jsonx.int r.nacks);
      ("resyncs", Jsonx.int r.resyncs);
      ("migrations", Jsonx.int r.migrations);
      ("soft_skips", Jsonx.int r.soft_skips);
      ("reconnects", Jsonx.int r.reconnects);
      ("rejoins_0rtt", Jsonx.int r.rejoins_0rtt);
      ("rejoins_full", Jsonx.int r.rejoins_full);
      ("ticket_rejects", Jsonx.int r.ticket_rejects);
      ("tickets_issued", Jsonx.int r.tickets_issued);
      ("ticket_bytes", Jsonx.int r.ticket_bytes);
      ("mcast_datagrams", Jsonx.int r.mcast_datagrams);
      ("mcast_bytes", Jsonx.int r.mcast_bytes);
      ("mcast_fallback_unicast", Jsonx.int r.mcast_fallback_unicast);
      ("server_tx_bytes_per_rekey", Jsonx.float r.server_tx_bytes_per_rekey);
      ("wall_s", Jsonx.float r.wall_s);
    ]

let print_row r =
  Printf.printf
    "  N=%-6d d=%d %-3s %-15s %d rekeys/%d intervals  %d samples  p50 %6.2fms  p99 %6.2fms  %8.1f B/member/interval  %10.1f tx B/rekey  (%.1fs)\n%!"
    r.n r.domains r.transport r.scenario r.rekeys r.intervals r.samples r.p50_ms r.p99_ms
    r.bytes_per_member_per_interval r.server_tx_bytes_per_rekey r.wall_s;
  if r.transport = "udp" then
    Printf.printf "           %d datagrams multicast (%d B), %d fallback-unicast generations\n%!"
      r.mcast_datagrams r.mcast_bytes r.mcast_fallback_unicast;
  if r.reconnects > 0 then
    Printf.printf
      "           %d reconnects: %d 0-RTT, %d full rejoins, %d resyncs, %d rejects  (%d tickets, %d ticket bytes)\n%!"
      r.reconnects r.rejoins_0rtt r.rejoins_full r.resyncs r.ticket_rejects r.tickets_issued
      r.ticket_bytes

let run ?(out = "BENCH_wire.json") ?(quick = false) ?(seed = 1) ?(intervals = 25) ?(tp = 0.02)
    ?(storm = false) ?(storm_frac = 0.008) ?(require_no_full = false) ?sizes
    ?(domains = [ 1 ]) ?(require_domains_speedup = false) ?(speedup_tolerance = 1.2)
    ?(transports = [ "tcp" ]) () =
  let sizes =
    match sizes with Some s -> s | None -> if quick then [ 100 ] else [ 100; 1000 ]
  in
  let domains = match domains with [] -> [ 1 ] | l -> l in
  let transports = match transports with [] -> [ "tcp" ] | l -> l in
  List.iter
    (fun t ->
      if t <> "tcp" && t <> "udp" then
        invalid_arg (Printf.sprintf "loadgen: unknown transport %S (want tcp or udp)" t))
    transports;
  (* The udp lane needs a kernel that accepts loopback multicast
     joins; probe once and skip visibly rather than fail. *)
  let transports =
    List.filter
      (fun t ->
        t = "tcp" || Mcast.available ()
        ||
        (Printf.printf "loadgen: SKIP udp rows — kernel refused the multicast join\n%!";
         false))
      transports
  in
  let intervals = if quick then min intervals 10 else intervals in
  (* Storm runs also produce the steady baseline row per (N, domains):
     the two scenarios share a document so the reconnect tax is read
     off one file. *)
  let fracs = if storm then [ 0.0; storm_frac ] else [ 0.0 ] in
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun d ->
            List.concat_map
              (fun transport ->
                List.map
                  (fun frac ->
                    Printf.printf
                      "loadgen: N=%d domains=%d transport=%s tp=%gs (%d churned intervals%s)\n%!"
                      n d transport tp intervals
                      (if frac > 0.0 then
                         Printf.sprintf ", reconnect storm %.1f%%/interval" (100.0 *. frac)
                       else "");
                    let r =
                      run_config ~seed ~n ~domains:d ~tp ~intervals ~storm_frac:frac
                        ~transport
                    in
                    print_row r;
                    r)
                  fracs)
              transports)
          domains)
      sizes
  in
  let doc =
    Jsonx.obj
      [
        ("schema", Jsonx.str "gkm.bench.wire/4");
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
  let no_full_err =
    if not require_no_full then []
    else
      List.filter_map
        (fun r ->
          if r.reconnects > 0 && (r.rejoins_full > 0 || r.resyncs > 0) then
            Some
              (Printf.sprintf "N=%d d=%d: %d full rejoins, %d resyncs" r.n r.domains
                 r.rejoins_full r.resyncs)
          else None)
        rows
  in
  let speedup_err =
    if not require_domains_speedup then []
    else
      let dmax = List.fold_left max 1 domains in
      if dmax < 2 || not (List.mem 1 domains) then
        [ "--require-domains-speedup needs a sweep that includes domains 1 and >= 2" ]
      else
        List.filter_map
          (fun base ->
            if base.domains <> 1 then None
            else
              match
                List.find_opt
                  (fun r ->
                    r.n = base.n && r.scenario = base.scenario
                    && r.transport = base.transport && r.domains = dmax)
                  rows
              with
              | Some sharded when sharded.p99_ms > speedup_tolerance *. base.p99_ms ->
                  Some
                    (Printf.sprintf "N=%d %s %s: p99 %.2fms at d=%d vs %.2fms at d=1 (> %.2fx)"
                       base.n base.scenario base.transport sharded.p99_ms dmax base.p99_ms
                       speedup_tolerance)
              | _ -> None)
          rows
  in
  match no_full_err @ speedup_err with
  | [] -> `Ok ()
  | errs ->
      let gate =
        if no_full_err <> [] then
          "reconnect storm fell back to full recovery (expected all 0-RTT under no loss)"
        else "sharded fan-out did not hold the p99 gate"
      in
      `Error (false, gate ^ ": " ^ String.concat "; " errs)
