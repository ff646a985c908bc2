module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Engine = Gkm_sim.Engine
module Stats = Gkm_sim.Stats
module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
module Member = Gkm_lkh.Member
module Rekey_msg = Gkm_lkh.Rekey_msg
module Job = Gkm_transport.Job
module Resync = Gkm_transport.Resync
module Fault = Gkm_fault.Fault
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Span = Gkm_obs.Span
module Journal = Gkm_obs.Journal

let m_intervals = Metrics.Counter.v "session.intervals"
let m_deadline_misses = Metrics.Counter.v "session.deadline_misses"
let m_latency = Metrics.Histogram.v "session.rekey_latency_s"
let m_group_size = Metrics.Gauge.v "session.group_size"
let m_resync = Metrics.Counter.v "recovery.resync"
let m_rejoin = Metrics.Counter.v "recovery.rejoin"
let m_recovery_latency = Metrics.Histogram.v "recovery.latency_s"

type config = {
  seed : int;
  n_target : int;
  alpha_duration : float;
  ms : float;
  ml : float;
  tp : float;
  horizon : float;
  org : Organization.spec;
  loss_alpha : float;
  ph : float;
  pl : float;
  rtt : float;
  deliver : bool;
  verify : bool;
}

let default_config =
  {
    seed = 1;
    n_target = 400;
    alpha_duration = 0.8;
    ms = 180.0;
    ml = 10800.0;
    tp = 60.0;
    horizon = 3600.0;
    org = Organization.Scheme_cfg { Scheme.kind = Tt; degree = 4; s_period = 10; seed = 2 };
    loss_alpha = 0.25;
    ph = 0.2;
    pl = 0.02;
    rtt = 2.0;
    deliver = true;
    verify = true;
  }

type result = {
  intervals : int;
  rekeys : int;
  mean_keys : float;
  mean_keys_sent : float;
  mean_rounds : float;
  mean_packets : float;
  deadline_misses : int;
  mean_size : float;
  final_size : int;
  verified : bool;
  faults_injected : int;
  restores : int;
  resyncs : int;
  rejoins : int;
  recovered : bool;
  dek_trace : string list;
}

(* Membership operations applied to the organization since its last
   snapshot. On a crash the server restores the snapshot and replays
   the log in order; because organization snapshots capture RNG
   positions and every key draw happens inside [register]/[rekey],
   the replayed operations re-draw exactly the keys the pre-crash
   server drew. *)
type wal_op =
  | Wal_join of { member : int; cls : Scheme.member_class; loss : float }
  | Wal_depart of int

type state = {
  cfg : config;
  mutable org : Organization.packed; (* replaced on crash-restore *)
  fi : Fault.Injector.t option;
  rng : Prng.t; (* arrivals, classes, loss assignment *)
  loss_of : (int, float) Hashtbl.t; (* member -> mean loss *)
  cls_of : (int, Scheme.member_class) Hashtbl.t; (* recovery re-registration *)
  keys : (int, Key.t) Hashtbl.t; (* individual keys *)
  members : (int, Member.t) Hashtbl.t; (* verification state *)
  evicted : (int, Member.t) Hashtbl.t;
  desynced : (int, unit) Hashtbl.t; (* lost key state; awaiting resync *)
  rejoining : (int, unit) Hashtbl.t; (* gave up resync; evict-then-readmit *)
  mutable delayed : (int * int) list; (* (due interval, member) *)
  mutable snapshot_blob : bytes;
  mutable wal : wal_op list; (* reversed *)
  mutable tick_no : int; (* 1-based rekey interval counter *)
  mutable next_member : int;
  mutable rekeys : int;
  mutable deadline_misses : int;
  mutable verified : bool;
  mutable restores : int;
  mutable resyncs : int;
  mutable rejoins : int;
  mutable dek_trace : string list; (* reversed *)
  keys_stat : Stats.t;
  sent_stat : Stats.t;
  rounds_stat : Stats.t;
  packets_stat : Stats.t;
  size_stat : Stats.t;
}

let class_mean st = function Scheme.Short -> st.cfg.ms | Scheme.Long -> st.cfg.ml

(* Departure-timer callback. Reads [st.org] at fire time — the packed
   module captured at admit time may have been replaced by a
   crash-restore since. Members in rejoin limbo were already departed
   by the recovery path. *)
let depart st m =
  if not (Hashtbl.mem st.rejoining m) then begin
    let module O = (val st.org) in
    match st.fi with
    | None -> O.enqueue_departure m
    | Some _ -> (
        (* Under a fault plan the recovery machinery may have raced
           this timer (departed and re-admitted the member); a stale
           timer is then a no-op rather than an error. *)
        match O.enqueue_departure m with
        | () -> st.wal <- Wal_depart m :: st.wal
        | exception Invalid_argument _ -> ())
  end

(* [short_prob] is the join-time class mix for arrivals, but the
   stationary resident mix for the seeded initial population — the
   same steady-state bootstrap as {!Gkm_workload.Membership}. *)
let admit st engine ~short_prob =
  let m = st.next_member in
  st.next_member <- st.next_member + 1;
  let cls = if Prng.bernoulli st.rng short_prob then Scheme.Short else Scheme.Long in
  let loss = if Prng.bernoulli st.rng st.cfg.loss_alpha then st.cfg.ph else st.cfg.pl in
  Hashtbl.replace st.loss_of m loss;
  let module O = (val st.org) in
  let key = O.register ~member:m ~cls ~loss in
  Hashtbl.replace st.keys m key;
  if st.fi <> None then begin
    Hashtbl.replace st.cls_of m cls;
    st.wal <- Wal_join { member = m; cls; loss } :: st.wal
  end;
  let duration = Prng.exponential st.rng ~mean:(class_mean st cls) in
  (* At fire time the member is either admitted (normal departure) or
     still pending its first batch (the departure cancels the join);
     enqueue_departure handles both. *)
  Engine.schedule_after engine ~delay:duration (fun _ -> depart st m)

(* The key server crashes at the start of this interval: throw the
   live organization away, restore the last end-of-interval snapshot,
   and replay the membership write-ahead log accumulated since. *)
let crash_restore st ~now =
  match st.fi with
  | None -> ()
  | Some fi ->
      if Fault.Injector.crash_at fi ~interval:st.tick_no then begin
        Fault.Injector.record fi ~time:now ~kind:"crash" ();
        st.restores <- st.restores + 1;
        (match Organization.restore st.cfg.org st.snapshot_blob with
        | Ok org -> st.org <- org
        | Error e -> failwith ("Session: crash restore failed: " ^ e));
        let module O = (val st.org) in
        List.iter
          (function
            | Wal_join { member; cls; loss } ->
                Hashtbl.replace st.keys member (O.register ~member ~cls ~loss)
            | Wal_depart m -> O.enqueue_departure m)
          (List.rev st.wal);
        if Obs.enabled () then
          Journal.record ~time:now "recovery.restore"
            [ ("interval", Journal.Int st.tick_no); ("wal_ops", Journal.Int (List.length st.wal)) ]
      end

(* Members that gave up resyncing were departed by the recovery path;
   once the rekey that evicts them has run, re-admit them as fresh
   joiners for the next batch. *)
let readmit_rejoining st =
  let module O = (val st.org) in
  Hashtbl.fold (fun m () acc -> m :: acc) st.rejoining []
  |> List.sort compare
  |> List.iter (fun m ->
         if not (O.is_member m) then begin
           let cls =
             match Hashtbl.find_opt st.cls_of m with Some c -> c | None -> Scheme.Long
           in
           let loss = Hashtbl.find st.loss_of m in
           let key = O.register ~member:m ~cls ~loss in
           Hashtbl.replace st.keys m key;
           st.wal <- Wal_join { member = m; cls; loss } :: st.wal;
           Hashtbl.remove st.rejoining m
         end)

let verify_members st ~now msg =
  let module O = (val st.org) in
  (* Placement notifications — the plan may drop or delay one. *)
  List.iter
    (fun (m, leaf) ->
      let intercepted =
        match st.fi with
        | None -> false
        | Some fi ->
            if Fault.Injector.dropped_unicast fi ~interval:st.tick_no ~member:m then begin
              Fault.Injector.record fi ~time:now ~kind:"drop" ~member:m ();
              Hashtbl.replace st.desynced m ();
              true
            end
            else (
              match Fault.Injector.delayed_unicast fi ~interval:st.tick_no ~member:m with
              | Some by ->
                  Fault.Injector.record fi ~time:now ~kind:"delay" ~member:m ();
                  st.delayed <- (st.tick_no + by, m) :: st.delayed;
                  true
              | None -> false)
      in
      if not intercepted then
        match Hashtbl.find_opt st.keys m with
        | None -> ()
        | Some key -> (
            match Hashtbl.find_opt st.members m with
            | Some member -> Member.install_path member [ (leaf, key) ]
            | None ->
                Hashtbl.replace st.members m
                  (Member.create ~id:m ~leaf_node:leaf ~individual_key:key)))
    (O.placements ());
  Hashtbl.iter
    (fun m member ->
      if not (O.is_member m) then begin
        Hashtbl.remove st.members m;
        Hashtbl.replace st.evicted m member
      end)
    (Hashtbl.copy st.members);
  let partitioned m =
    match st.fi with
    | Some fi -> Fault.Injector.partitioned fi ~time:now ~member:m
    | None -> false
  in
  Hashtbl.iter
    (fun m member -> if not (partitioned m) then ignore (Member.process member msg))
    st.members;
  Hashtbl.iter (fun _ member -> ignore (Member.process member msg)) st.evicted;
  match O.group_key () with
  | None -> if Hashtbl.length st.members > 0 then st.verified <- false
  | Some dek ->
      let stale = ref [] in
      Hashtbl.iter
        (fun m member ->
          match Member.group_key member with
          | Some k when Key.equal k dek -> ()
          | _ -> stale := m :: !stale)
        st.members;
      (match st.fi with
      | None -> if !stale <> [] then st.verified <- false
      | Some _ ->
          (* Under a fault plan a stale member is a recovery case, not
             a failure: it lost entries to the injected fault and must
             resync. *)
          List.iter
            (fun m ->
              Hashtbl.remove st.members m;
              Hashtbl.replace st.desynced m ())
            !stale);
      (* Eviction lockout is unconditional: no fault excuses an
         evicted member still holding the current DEK. *)
      Hashtbl.iter
        (fun _ member ->
          match Member.group_key member with
          | Some k when Key.equal k dek -> st.verified <- false
          | _ -> ())
        st.evicted

let deliver st ~now msg =
  let module O = (val st.org) in
  let model m =
    let base = Loss_model.bernoulli (Hashtbl.find st.loss_of m) in
    match st.fi with
    | None -> base
    | Some fi -> Fault.Injector.loss_model fi ~time:now ~member:m base
  in
  let tree_members = List.concat_map Gkm_keytree.Keytree.members (O.trees ()) in
  let in_tree = Hashtbl.create (List.length tree_members) in
  List.iter (fun m -> Hashtbl.replace in_tree m ()) tree_members;
  let population = List.map (fun m -> (m, model m)) tree_members in
  (* Queue residents are receivers too. *)
  let queue_members =
    Hashtbl.fold
      (fun m _ acc ->
        if (not (Hashtbl.mem in_tree m)) && O.is_member m then (m, model m) :: acc
        else acc)
      st.keys []
  in
  let channel = Channel.create ~rng:(Prng.split st.rng) (population @ queue_members) in
  let job =
    Job.of_rekey
      ~groups:(O.receiver_groups ())
      ~channel ~trees:(O.trees ()) msg
  in
  let outcome = Gkm_transport.Wka_bkr.deliver ~channel job in
  Stats.add st.sent_stat (float_of_int outcome.Gkm_transport.Delivery.keys);
  Stats.add st.rounds_stat (float_of_int outcome.rounds);
  Stats.add st.packets_stat (float_of_int outcome.packets);
  let missed = float_of_int outcome.rounds *. st.cfg.rtt > st.cfg.tp in
  if missed then st.deadline_misses <- st.deadline_misses + 1;
  if Obs.enabled () then begin
    Metrics.Histogram.observe m_latency (float_of_int outcome.rounds *. st.cfg.rtt);
    if missed then Metrics.Counter.incr m_deadline_misses
  end;
  if outcome.undelivered > 0 then begin
    (* Undelivered receivers under an active channel fault are the
       injected failure, not a transport bug; the verification pass
       routes the affected members into recovery. *)
    match st.fi with
    | Some fi when Fault.Injector.channel_faulty fi ~time:now -> ()
    | _ -> st.verified <- false
  end;
  outcome

(* One in-flight corruption: flip one ciphertext bit of an
   injector-chosen entry. [Key.unwrap]'s key check makes the
   receivers discard the entry, so its receivers miss a key — the
   detectable-corruption model of the wrap format. *)
let corrupt_msg fi msg =
  match (msg : Rekey_msg.t).entries with
  | [] -> msg
  | entries ->
      let arr = Array.of_list entries in
      let i = Prng.int (Fault.Injector.rng fi) (Array.length arr) in
      let e = arr.(i) in
      let ct = Bytes.copy e.Rekey_msg.ciphertext in
      Bytes.set ct 0 (Char.chr (Char.code (Bytes.get ct 0) lxor 1));
      arr.(i) <- { e with ciphertext = ct };
      { msg with entries = Array.to_list arr }

(* Desynchronized members request a catch-up unicast over their lossy
   path with bounded retries; success rebuilds the member's key state
   from the server's current path, give-up falls back to a full
   evict-and-rejoin. *)
let resync_pass st ~now =
  match st.fi with
  | None -> ()
  | Some fi ->
      let module O = (val st.org) in
      let config =
        { Resync.default with rtt = (if st.cfg.rtt > 0.0 then st.cfg.rtt else Resync.default.rtt) }
      in
      Hashtbl.fold (fun m () acc -> m :: acc) st.desynced []
      |> List.sort compare
      |> List.iter (fun m ->
             if not (O.is_member m) then Hashtbl.remove st.desynced m
             else if Fault.Injector.partitioned fi ~time:now ~member:m then
               (* Still cut off: no request can cross; try next interval. *)
               ()
             else begin
               let base = Hashtbl.find st.loss_of m in
               let loss_at elapsed =
                 Fault.Injector.loss_rate fi ~time:(now +. elapsed) ~member:m base
               in
               match Resync.request ~config ~rng:(Fault.Injector.rng fi) ~loss_at () with
               | Resync.Synced { attempts; latency } -> (
                   match O.member_path m with
                   | exception Not_found -> Hashtbl.remove st.desynced m
                   | [] -> Hashtbl.remove st.desynced m
                   | (leaf, _) :: _ as path ->
                       let ikey = Hashtbl.find st.keys m in
                       let member = Member.create ~id:m ~leaf_node:leaf ~individual_key:ikey in
                       Member.install_path member path;
                       (match List.rev path with
                       | (root, _) :: _ -> Member.set_root member root
                       | [] -> ());
                       Hashtbl.replace st.members m member;
                       Hashtbl.remove st.desynced m;
                       st.resyncs <- st.resyncs + 1;
                       if Obs.enabled () then begin
                         Metrics.Counter.incr m_resync;
                         Metrics.Histogram.observe m_recovery_latency latency;
                         Journal.record ~time:now "recovery.resync"
                           [
                             ("member", Journal.Int m);
                             ("attempts", Journal.Int attempts);
                             ("latency_s", Journal.Float latency);
                           ]
                       end)
               | Resync.Gave_up { attempts; latency } ->
                   Hashtbl.remove st.desynced m;
                   Hashtbl.replace st.rejoining m ();
                   (match O.enqueue_departure m with
                   | () -> st.wal <- Wal_depart m :: st.wal
                   | exception Invalid_argument _ -> ());
                   st.rejoins <- st.rejoins + 1;
                   if Obs.enabled () then begin
                     Metrics.Counter.incr m_rejoin;
                     Metrics.Histogram.observe m_recovery_latency latency;
                     Journal.record ~time:now "recovery.rejoin"
                       [
                         ("member", Journal.Int m);
                         ("attempts", Journal.Int attempts);
                         ("latency_s", Journal.Float latency);
                       ]
                   end
             end)

(* One rekey interval. Instrumentation (spans, journal, metrics) is
   read-only with respect to the simulation state — in particular it
   never touches an RNG — so a run is bit-identical with observability
   on or off. With no fault plan every recovery hook is a no-op and
   the interval is bit-identical to the pre-fault implementation.
   Spans use the process clock (compute breakdown); the journal and
   the latency histogram use sim time [now]. *)
let rekey_tick st ~now =
  st.tick_no <- st.tick_no + 1;
  crash_restore st ~now;
  let module O = (val st.org) in
  let obs = Obs.enabled () in
  if obs then
    Journal.record ~time:now "interval.start"
      [ ("size", Journal.Int (O.size ())) ];
  (* The "rekey.build" span is recorded inside the organization's
     rekey ([Scheme.rekey]), not here. *)
  (match O.rekey () with
  | None ->
      if obs then
        Journal.record ~time:now "interval.end" [ ("rekeyed", Journal.Bool false) ]
  | Some msg ->
      st.rekeys <- st.rekeys + 1;
      Stats.add st.keys_stat (float_of_int (O.last_cost ()));
      let msg =
        match st.fi with
        | Some fi when Fault.Injector.corrupt_at fi ~interval:st.tick_no ->
            Fault.Injector.record fi ~time:now ~kind:"corrupt" ();
            corrupt_msg fi msg
        | _ -> msg
      in
      let outcome =
        if st.cfg.deliver then
          Some (Span.with_span "rekey.deliver" (fun () -> deliver st ~now msg))
        else None
      in
      if st.cfg.verify then
        Span.with_span "rekey.verify" (fun () -> verify_members st ~now msg);
      if obs then begin
        let delivery_fields =
          match outcome with
          | None -> []
          | Some (o : Gkm_transport.Delivery.outcome) ->
              [
                ("rounds", Journal.Int o.rounds);
                ("packets", Journal.Int o.packets);
                ("keys_sent", Journal.Int o.keys);
                ("nacks", Journal.Int o.nacks);
                ( "bytes_sent",
                  Journal.Int (o.bandwidth_keys * Gkm_crypto.Key.wrapped_size) );
                ( "latency_s",
                  Journal.Float (float_of_int o.rounds *. st.cfg.rtt) );
              ]
        in
        Journal.record ~time:now "interval.end"
          (( "rekeyed", Journal.Bool true )
          :: ("keys_encrypted", Journal.Int (O.last_cost ()))
          :: ("size", Journal.Int (O.size ()))
          :: delivery_fields)
      end);
  (match st.fi with
  | None -> ()
  | Some fi ->
      (* The rekey above evicted any member departed by last interval's
         give-up path; re-admit those now so they rejoin next batch. *)
      readmit_rejoining st;
      (* Point desyncs injected by the plan. *)
      List.iter
        (fun m ->
          if O.is_member m then begin
            Fault.Injector.record fi ~time:now ~kind:"desync" ~member:m ();
            Hashtbl.remove st.members m;
            Hashtbl.replace st.desynced m ()
          end)
        (Fault.Injector.desyncs_at fi ~interval:st.tick_no);
      (* Delayed placement unicasts coming due are stale by now — the
         member needs a proper catch-up, i.e. it is desynchronized. *)
      let due, rest = List.partition (fun (d, _) -> d <= st.tick_no) st.delayed in
      st.delayed <- rest;
      List.iter (fun (_, m) -> if O.is_member m then Hashtbl.replace st.desynced m ()) due;
      resync_pass st ~now;
      (* End-of-interval checkpoint: the recovery baseline for a crash
         at any later interval. *)
      st.snapshot_blob <- O.snapshot ();
      st.wal <- []);
  st.dek_trace <-
    (match O.group_key () with Some k -> Key.fingerprint k | None -> "")
    :: st.dek_trace;
  if obs then begin
    Metrics.Counter.incr m_intervals;
    Metrics.Gauge.set m_group_size (float_of_int (O.size ()))
  end;
  Stats.add st.size_stat (float_of_int (O.size ()))

let run ?faults cfg =
  if cfg.n_target < 0 || cfg.tp <= 0.0 || cfg.horizon < 0.0 || cfg.rtt < 0.0 then
    invalid_arg "Session.run: inconsistent configuration";
  if cfg.alpha_duration < 0.0 || cfg.alpha_duration > 1.0 then
    invalid_arg "Session.run: alpha outside [0, 1]";
  let engine = Engine.create () in
  let fi =
    match faults with
    | None | Some [] -> None
    | Some plan -> Some (Fault.Injector.create ~seed:(cfg.seed + 9973) plan)
  in
  let st =
    {
      cfg;
      org = Organization.create cfg.org;
      fi;
      rng = Prng.create cfg.seed;
      loss_of = Hashtbl.create 256;
      cls_of = Hashtbl.create 256;
      keys = Hashtbl.create 256;
      members = Hashtbl.create 256;
      evicted = Hashtbl.create 256;
      desynced = Hashtbl.create 16;
      rejoining = Hashtbl.create 16;
      delayed = [];
      snapshot_blob = Bytes.empty;
      wal = [];
      tick_no = 0;
      next_member = 0;
      rekeys = 0;
      deadline_misses = 0;
      verified = true;
      restores = 0;
      resyncs = 0;
      rejoins = 0;
      dek_trace = [];
      keys_stat = Stats.create ();
      sent_stat = Stats.create ();
      rounds_stat = Stats.create ();
      packets_stat = Stats.create ();
      size_stat = Stats.create ();
    }
  in
  let cfg_m =
    Gkm_workload.Membership.of_params ~n_target:cfg.n_target ~alpha:cfg.alpha_duration
      ~ms:cfg.ms ~ml:cfg.ml ~tp:cfg.tp
  in
  (* Seed the initial population with the stationary class mix; their
     residual lifetimes are exponential by memorylessness. *)
  let stationary = Gkm_workload.Membership.stationary_short_fraction cfg_m in
  for _ = 1 to cfg.n_target do
    admit st engine ~short_prob:stationary
  done;
  (match st.fi with
  | None -> ()
  | Some fi ->
      (* The initial registrations are part of checkpoint zero, so the
         WAL restarts empty here. *)
      let module O = (val st.org) in
      st.snapshot_blob <- O.snapshot ();
      st.wal <- [];
      Fault.Injector.arm fi ~engine);
  (* Poisson arrivals keep the group in steady state. *)
  let rate = Gkm_workload.Membership.joins_per_interval cfg_m /. cfg.tp in
  let rec arrival engine =
    admit st engine ~short_prob:cfg.alpha_duration;
    let gap = Prng.exponential st.rng ~mean:(1.0 /. rate) in
    if Engine.now engine +. gap <= cfg.horizon then Engine.schedule_after engine ~delay:gap arrival
  in
  if rate > 0.0 then begin
    let first = Prng.exponential st.rng ~mean:(1.0 /. rate) in
    if first <= cfg.horizon then Engine.schedule_after engine ~delay:first arrival
  end;
  (* The periodic rekey timer. *)
  let rec tick engine =
    Span.with_span "rekey.interval" (fun () -> rekey_tick st ~now:(Engine.now engine));
    if Engine.now engine +. cfg.tp <= cfg.horizon then
      Engine.schedule_after engine ~delay:cfg.tp tick
  in
  if cfg.tp <= cfg.horizon then Engine.schedule_after engine ~delay:cfg.tp tick;
  Engine.run ~until:cfg.horizon engine;
  let module O = (val st.org) in
  let mean_or_zero s = if Stats.count s = 0 then 0.0 else Stats.mean s in
  {
    intervals = int_of_float (cfg.horizon /. cfg.tp);
    rekeys = st.rekeys;
    mean_keys = mean_or_zero st.keys_stat;
    mean_keys_sent = mean_or_zero st.sent_stat;
    mean_rounds = mean_or_zero st.rounds_stat;
    mean_packets = mean_or_zero st.packets_stat;
    deadline_misses = st.deadline_misses;
    mean_size = mean_or_zero st.size_stat;
    final_size = O.size ();
    verified = st.verified;
    faults_injected = (match st.fi with Some fi -> Fault.Injector.injected fi | None -> 0);
    restores = st.restores;
    resyncs = st.resyncs;
    rejoins = st.rejoins;
    recovered =
      Hashtbl.length st.desynced = 0
      && Hashtbl.length st.rejoining = 0
      && st.delayed = [];
    dek_trace = List.rev st.dek_trace;
  }
