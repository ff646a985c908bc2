(* udp-steady and tcp-rejoin: a live rekey server and its members over
   loopback sockets, in lockstep.

   One [Gkm_netd.Server] (TT, one domain) and [members] in-process
   [Client]s share the benchmark's single poll [Loop]. The server's
   rekey timer is set far beyond any run; the benchmark ticks it itself
   with [Server.tick_now] once the interval's membership events have
   reached it, and starts the next interval only when every member has
   installed the new DEK. Each interval one churner joins and the
   previous one leaves. On tcp-rejoin about 1% of the members are also
   crash-killed behind a PING/PONG drain barrier and come back by 0-RTT
   ticket REJOIN before the tick. The initial group joins one member at
   a time, so member ids — and with them every key the server draws —
   depend on the seed alone.

   Member 0 is also the observer: the sealed records it receives are
   opened a second time by the benchmark, under the DEK it held before
   the rekey, to count the keys that travelled and to time the record,
   wire and packet decoders from outside.

   A traced run also keeps a mirror of the server's organization: the
   same spec, fed the same joins and leaves, draws the same keys (its
   DEK is checked against the server's after every rekey). It times
   the organization from outside ([core.*]) and holds a shadow of
   member 1, whose [Member.process] gives [lkh.*]. *)

module Loop = Gkm_netd.Loop
module Server = Gkm_netd.Server
module Client = Gkm_netd.Client
module Mcast = Gkm_netd.Mcast
module Key = Gkm_crypto.Key
module Packet = Gkm_transport.Packet
module Msg = Gkm_wire.Msg
module Frame = Gkm_wire.Frame
module Record = Gkm_record.Record
module Member = Gkm_lkh.Member

let members = 256
let kill_frac = 0.01
let warmup = Gkm.Scheme.(default_config Tt).s_period + 2
let now = Unix.gettimeofday

type slot = {
  c : Client.t;
  mutable sealed_at : float;  (* first sealed record of the measured rekey *)
  mutable dek_at : float;  (* its on_dek *)
}

type mirror = {
  org : Gkm.Organization.packed;
  mutable shadow : Member.t option;
  mutable joins : int;  (* traced intervals only, like the spans *)
  mutable rekeys : int;
  mutable moved : int;
  mutable used : int;
  mutable diverged : bool;
}

type g = {
  transport : [ `Udp | `Tcp ];
  seed : int;
  loop : Loop.t;
  srv : Server.t;
  group : Mcast.group option;
  mutable slots : slot array;
  mutable churner : Client.t option;
  mutable churn_no : int;
  mutable churner_id : int;
  mirror : mirror option;
  mutable cursor : int;
  mutable target : int;  (* rekey_no of the rekey in flight *)
  mutable observed : (int64 * bytes) list;  (* observer's records of it, newest first *)
  mutable last_tx : int;
  (* measured-phase baselines and tallies *)
  mutable tx0 : int;
  mutable missed_fanout : int;
  mutable st0 : Server.stats;
  mutable first_rekey : int;
  mutable client0 : (int * int * int) array;  (* auth drops, replay drops, resyncs *)
  mutable n_rekeys : int;
  mutable keys : int;
  mutable wire_bytes : int;
  mutable traced : int;  (* traced intervals, and the records and packets in them *)
  mutable records : int;
  mutable packets : int;
}

let mirror_join g id =
  Option.iter
    (fun m ->
      let module O = (val m.org : Gkm.Organization.S) in
      Trace.span "core.register" (fun () ->
          ignore (O.register ~member:id ~cls:Gkm.Scheme.Long ~loss:0.0));
      if !Trace.on then m.joins <- m.joins + 1)
    g.mirror

let mirror_leave g id =
  Option.iter
    (fun m ->
      let module O = (val m.org : Gkm.Organization.S) in
      O.enqueue_departure id)
    g.mirror

let mirror_rekey g =
  match g.mirror with
  | Some m when not m.diverged -> (
      let module O = (val m.org : Gkm.Organization.S) in
      match Trace.span "core.rekey" O.rekey with
      | None -> m.diverged <- true
      | Some msg ->
          if !Trace.on then m.rekeys <- m.rekeys + 1;
          Option.iter
            (fun sh ->
              let used = Trace.span "lkh.process" (fun () -> Member.process sh msg) in
              if !Trace.on then m.used <- m.used + used)
            m.shadow;
          List.iter
            (fun (id, _) ->
              if !Trace.on && id <> g.churner_id then m.moved <- m.moved + 1;
              if id = 1 then m.shadow <- Some (Paper_tt.install m.org 1))
            (O.placements ());
          let fp = Option.map Key.fingerprint (O.group_key ()) in
          let served = Option.map snd (List.nth_opt (List.rev (Server.dek_trace g.srv)) 0) in
          if served <> fp then m.diverged <- true)
  | _ -> ()

let run_until g ~tag cond =
  let deadline = now () +. 30.0 in
  while not (cond ()) do
    if now () > deadline then failwith ("live: timeout waiting for " ^ tag);
    Loop.step ~max_wait:0.05 g.loop
  done

let client_cfg g seed = { (Client.config ~port:(Server.port g.srv)) with seed; mcast = g.group }

let add_slot g i =
  let c = Client.connect ~loop:g.loop (client_cfg g ((g.seed * 100_000) + i)) in
  let s = { c; sealed_at = nan; dek_at = nan } in
  Client.on_sealed c (fun ~epoch:_ ~seq ~ct ->
      if Float.is_nan s.sealed_at then s.sealed_at <- now ();
      if i = 0 then g.observed <- (seq, ct) :: g.observed);
  Client.on_dek c (fun ~rekey_no ~fp:_ -> if rekey_no = g.target then s.dek_at <- now ());
  s

(* Crash-kill this interval's victims at the quiet point, each only
   after a PING/PONG barrier proves its connection drained (so the
   ticket that rode along with the last tick is in hand), then
   reconnect them; each must be back, by ticket, before the tick. *)
let kill_and_rejoin g =
  let k = max 1 (int_of_float ((kill_frac *. float_of_int members) +. 0.5)) in
  let victims =
    List.init k (fun _ ->
        (* slot 0 is the observer; it stays up *)
        let v = 1 + (g.cursor mod (members - 1)) in
        g.cursor <- g.cursor + 1;
        g.slots.(v))
  in
  let drained = ref 0 in
  List.iter (fun v -> Client.drain v.c (fun () -> Client.kill v.c; incr drained)) victims;
  run_until g ~tag:"victims drained" (fun () -> !drained = k);
  let t0 = now () in
  List.iter (fun v -> Client.reconnect v.c) victims;
  let back = Array.make k nan in
  run_until g ~tag:"victims rejoined" (fun () ->
      List.iteri
        (fun i v -> if Float.is_nan back.(i) && Client.is_member v.c then back.(i) <- now ())
        victims;
      Array.for_all (fun t -> not (Float.is_nan t)) back);
  Trace.record "wait.rejoin" ~start:t0 ~stop:(Array.fold_left Float.max t0 back);
  Array.to_list (Array.map (fun t -> (t -. t0) *. 1e3) back)

(* One churner in, the previous one out; wait until the server has
   counted both events. *)
let churn g =
  let st = Server.stats g.srv in
  let joins0 = st.joins and leaves0 = st.leaves in
  let t0 = now () in
  let cfg = client_cfg g ((g.seed * 100_000) + members + g.churn_no) in
  let c = Client.connect ~loop:g.loop cfg in
  g.churn_no <- g.churn_no + 1;
  let expect_leaves = leaves0 + match g.churner with Some _ -> 1 | None -> 0 in
  Option.iter Client.leave g.churner;
  (* Server member ids run from 1 in join order: the group, then one
     churner per interval. *)
  if g.churner <> None then mirror_leave g g.churner_id;
  g.churner_id <- members + g.churn_no;
  mirror_join g g.churner_id;
  g.churner <- Some c;
  let joined_at = ref nan in
  run_until g ~tag:"churn events" (fun () ->
      let st = Server.stats g.srv in
      if Float.is_nan !joined_at && st.joins > joins0 then joined_at := now ();
      st.joins = joins0 + 1 && st.leaves = expect_leaves);
  Trace.record "wait.event" ~start:t0 ~stop:!joined_at;
  (c, t0)

(* Open the observer's records again, under the DEK it held before the
   rekey: the keys that travelled, and the receive-side decoders timed
   from outside. *)
let shadow_decode g dek =
  let records = List.rev g.observed in
  let sink =
    Trace.span "record.epoch" (fun () -> Record.Sink.create (Record.Epoch.of_dek ~dek ~label:0))
  in
  let opened =
    Trace.span "record.open" (fun () ->
        List.map
          (fun (seq, ct) ->
            match Record.Sink.open_ sink ~seq ct with
            | Ok pt -> pt
            | Error _ -> failwith "live: an observed record failed to open")
          records)
  in
  let packets =
    Trace.span "wire.decode" (fun () ->
        List.map
          (fun pt ->
            match Msg.decode_inner pt with
            | Ok (Msg.Rekey r) -> r.packet
            | _ -> failwith "live: an observed record is not a REKEY")
          opened)
  in
  let entries =
    Trace.span "transport.decode" (fun () ->
        List.concat_map
          (fun p ->
            match Packet.decode_payload p.Packet.payload with Ok es -> es | Error e -> failwith e)
          packets)
  in
  if !Trace.on then begin
    g.traced <- g.traced + 1;
    g.records <- g.records + List.length records;
    g.packets <- g.packets + List.length packets
  end;
  let frame_bytes (seq, ct) =
    Bytes.length (Frame.encode ~version:2 (Msg.Sealed { epoch = 0; seq; ct }))
  in
  g.wire_bytes <- g.wire_bytes + List.fold_left (fun a r -> a + frame_bytes r) 0 records;
  List.length entries

let interval g =
  Trace.rekey_no := Server.rekey_no g.srv + 1;
  Trace.span "bench.interval" (fun () ->
      let rejoin_ms = match g.transport with `Tcp -> kill_and_rejoin g | `Udp -> [] in
      let churner, joined_from = churn g in
      let churner_at = ref nan in
      Client.on_dek churner (fun ~rekey_no:_ ~fp:_ ->
          if Float.is_nan !churner_at then churner_at := now ());
      Array.iter (fun s -> s.sealed_at <- nan; s.dek_at <- nan) g.slots;
      g.observed <- [];
      let dek = Option.get (Client.group_key g.slots.(0).c) in
      g.target <- Server.rekey_no g.srv + 1;
      let t0 = now () in
      Server.tick_now g.srv;
      let t1 = now () in
      Trace.record "netd.tick" ~start:t0 ~stop:t1;
      if Server.rekey_no g.srv <> g.target then failwith "live: the tick produced no rekey";
      run_until g ~tag:"rekey delivered" (fun () ->
          Client.is_member churner
          && Array.for_all (fun s -> Client.last_rekey s.c >= g.target) g.slots);
      let done_at = now () in
      let last = ref t0 in
      Array.iter
        (fun s ->
          if Float.is_nan s.dek_at || Float.is_nan s.sealed_at then begin
            (* reached the rekey some other way than its fan-out *)
            g.missed_fanout <- g.missed_fanout + 1;
            last := done_at
          end
          else begin
            last := Float.max !last s.dek_at;
            Trace.record "wait.fanout" ~start:t1 ~stop:s.sealed_at;
            Trace.record "netd.client" ~start:s.sealed_at ~stop:s.dek_at
          end)
        g.slots;
      let rekey_ms = (!last -. t0) *. 1e3 in
      let keys = shadow_decode g dek in
      mirror_rekey g;
      (* Let the server flush what the tick queued behind the rekey
         (tickets) so the interval's egress is complete and exact. *)
      let tx = ref (Server.bytes_tx g.srv) and stable = ref false in
      while not !stable do
        Loop.step ~max_wait:0.0 g.loop;
        let b = Server.bytes_tx g.srv in
        stable := b = !tx;
        tx := b
      done;
      let bytes = !tx - g.last_tx in
      g.last_tx <- !tx;
      g.n_rekeys <- g.n_rekeys + 1;
      g.keys <- g.keys + keys;
      let rejoin_ms =
        match g.transport with `Tcp -> rejoin_ms | `Udp -> [ (!churner_at -. joined_from) *. 1e3 ]
      in
      { Harness.rekey_ms; keys; bytes; rejoin_ms })

let client_counters g =
  Array.map
    (fun s -> (Client.auth_dropped s.c, Client.replays_dropped s.c, Client.resyncs s.c))
    g.slots

let setup ~seed ~transport ~trace ~rep () =
  let loop = Loop.create () in
  let group =
    match transport with
    | `Udp -> Some (Mcast.ephemeral_group ~seed:((seed * 8) + rep))
    | `Tcp -> None
  in
  let org = Gkm.Organization.Scheme_cfg { (Gkm.Scheme.default_config Gkm.Scheme.Tt) with seed } in
  let mirror =
    if not trace then None
    else
      let org = Gkm.Organization.create org in
      Some { org; shadow = None; joins = 0; rekeys = 0; moved = 0; used = 0; diverged = false }
  in
  let srv =
    Server.create ~loop
      {
        Server.default_config with
        port = 0;
        org;
        tp = 3600.0;
        domains = 1;
        transport = (match group with Some grp -> Server.udp grp | None -> Server.Tcp);
      }
  in
  let g =
    {
      transport;
      seed;
      loop;
      srv;
      group;
      slots = [||];
      churner = None;
      churn_no = 0;
      churner_id = 0;
      mirror;
      cursor = 0;
      target = 0;
      observed = [];
      last_tx = 0;
      st0 = Server.stats srv;
      first_rekey = 0;
      client0 = [||];
      n_rekeys = 0;
      keys = 0;
      records = 0;
      packets = 0;
      wire_bytes = 0;
      traced = 0;
      tx0 = 0;
      missed_fanout = 0;
    }
  in
  g.slots <-
    Array.init members (fun i ->
        let s = add_slot g i in
        run_until g ~tag:"join" (fun () -> (Server.stats srv).joins = i + 1);
        mirror_join g (i + 1);
        s);
  Server.tick_now srv;
  run_until g ~tag:"admission" (fun () -> Array.for_all (fun s -> Client.is_member s.c) g.slots);
  mirror_rekey g;
  g.last_tx <- Server.bytes_tx srv;
  for _ = 1 to warmup do
    ignore (interval g)
  done;
  let st = Server.stats srv in
  g.st0 <- { st with joins = st.joins };
  g.first_rekey <- Server.rekey_no srv + 1;
  g.client0 <- client_counters g;
  g.tx0 <- Server.bytes_tx srv;
  g.n_rekeys <- 0;
  g.keys <- 0;
  g.records <- 0;
  g.packets <- 0;
  g.wire_bytes <- 0;
  g.traced <- 0;
  g.missed_fanout <- 0;
  g

let teardown g =
  Array.iter (fun s -> Client.kill s.c) g.slots;
  Option.iter Client.kill g.churner;
  Server.stop g.srv

let finish g (r : Report.t) =
  (* Every member's DEK trace against the server's, rekey by rekey. *)
  let truth = List.filter (fun (n, _) -> n >= g.first_rekey) (Server.dek_trace g.srv) in
  Array.iteri
    (fun i s ->
      let seen = Hashtbl.create 256 in
      List.iter (fun (n, fp) -> Hashtbl.replace seen n fp) (Client.dek_trace s.c);
      List.iter
        (fun (n, fp) ->
          Report.check r (Hashtbl.find_opt seen n = Some fp)
            "member %d: DEK of rekey %d is not the server's" i n)
        truth)
    g.slots;
  let st = Server.stats g.srv and st0 = g.st0 in
  let rekeys = float_of_int (max 1 g.n_rekeys) in
  let auth, replay, resync =
    Array.fold_left
      (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
      (0, 0, 0)
      (Array.mapi
         (fun i (x, y, z) ->
           let x0, y0, z0 = g.client0.(i) in
           (x - x0, y - y0, z - z0))
         (client_counters g))
  in
  (* Recovery work in a fault-free run is a failure of the operation
     that needed it. *)
  let d f = f st - f st0 in
  let nacks = d (fun s -> s.nacks) and resyncs = d (fun s -> s.resyncs) in
  let skips = d (fun s -> s.soft_skips) and full = d (fun s -> s.rejoins_full) in
  let rejects = d (fun s -> s.ticket_rejects) in
  let recoveries = nacks + resyncs + skips + full + rejects + auth + resync + g.missed_fanout in
  r.Report.failed <- r.Report.failed + recoveries;
  if recoveries > 0 then
    Report.note r
      "recoveries: %d nacks, %d resyncs, %d soft skips, %d full rejoins, %d ticket rejects, \
       %d auth drops, %d client resyncs, %d member-rekeys without fan-out"
      nacks resyncs skips full rejects auth resync g.missed_fanout;
  let d f = float_of_int (d f) in
  Report.set r "netd.tick_ms" (Trace.ms_per_rekey "netd.tick");
  Report.set r "netd.fanout_wait_ms" (Stats.median (Trace.durations "wait.fanout") *. 1e3);
  Report.set r "netd.client_us" (Stats.median (Trace.durations "netd.client") *. 1e6);
  Report.set r "netd.client_sum_ms" (Trace.ms_per_rekey "netd.client");
  Report.set r "netd.event_ms" (Trace.ms_per_rekey "wait.event");
  let tcp_bytes = float_of_int (Server.bytes_tx g.srv - g.tx0) -. d (fun s -> s.mcast_bytes) in
  Report.set r "netd.tx_bytes" (tcp_bytes /. rekeys);
  Report.set r "netd.mcast_bytes" (d (fun s -> s.mcast_bytes) /. rekeys);
  Report.set r "netd.mcast_datagrams" (d (fun s -> s.mcast_datagrams) /. rekeys);
  Report.set r "netd.mcast_fallback" (d (fun s -> s.mcast_fallback_unicast));
  Report.set r "netd.nacks" (d (fun s -> s.nacks));
  Report.set r "netd.resyncs" (d (fun s -> s.resyncs));
  Report.set r "netd.soft_skips" (d (fun s -> s.soft_skips));
  Report.set r "netd.migrations" (d (fun s -> s.migrations));
  Report.set r "netd.tickets_issued" (d (fun s -> s.tickets_issued) /. rekeys);
  Report.set r "netd.ticket_bytes" (d (fun s -> s.ticket_bytes) /. rekeys);
  Report.set r "netd.rejoins_0rtt" (d (fun s -> s.rejoins_0rtt));
  Report.set r "netd.rejoins_full" (d (fun s -> s.rejoins_full));
  Report.set r "netd.ticket_rejects" (d (fun s -> s.ticket_rejects));
  Report.set r "record.open_us" (Trace.us_per "record.open" g.records);
  Report.set r "record.epoch_us" (Trace.us_per "record.epoch" g.traced);
  Report.set r "record.auth_fail" (float_of_int auth);
  Report.set r "record.replay_drop" (float_of_int replay);
  Report.set r "wire.decode_us" (Trace.us_per "wire.decode" g.records);
  Report.set r "wire.bytes" (float_of_int g.wire_bytes /. rekeys);
  Report.set r "transport.decode_us" (Trace.us_per "transport.decode" g.packets);
  Report.set r "transport.packets" (float_of_int g.packets /. float_of_int (max 1 g.traced));
  Report.set r "core.keys" (float_of_int g.keys /. rekeys);
  (match g.mirror with
  | Some m when m.diverged ->
      Report.note r "mirror organization diverged from the server: core.* and lkh.* not reported"
  | Some m ->
      Report.set r "core.rekey_ms" (Trace.ms_per_rekey "core.rekey");
      Report.set r "core.register_us" (Trace.us_per "core.register" m.joins);
      Report.set r "core.migrations" (float_of_int m.moved /. float_of_int (max 1 m.rekeys));
      Report.set r "lkh.process_us" (Trace.us_per "lkh.process" m.rekeys);
      Report.set r "lkh.entries_used" (float_of_int m.used /. float_of_int (max 1 m.rekeys))
  | None -> ());
  let tick = Trace.ms_per_rekey "netd.tick" and sum = Trace.ms_per_rekey "netd.client" in
  Option.iter
    (fun p50 ->
      Report.note r
        "accounting: netd.tick %.3f + sum of netd.client %.3f = %.3f ms \
         against the traced rekey_ms p50 %.3f ms (%.1f%%)"
        tick sum (tick +. sum) p50 (100.0 *. (tick +. sum) /. p50))
    (Report.get r "bench.traced_rekey_ms_p50")

let rep = ref 0

let workload ~seed ~transport ~trace =
  if transport = `Udp && not (Mcast.available ()) then
    failwith "udp-steady: this host refuses loopback multicast";
  {
    Harness.setup =
      (fun () ->
        incr rep;
        setup ~seed ~transport ~trace ~rep:!rep ());
    teardown;
    interval;
    dek_trace = (fun g -> Server.dek_trace g.srv);
    finish;
  }
