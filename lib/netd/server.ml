module Organization = Gkm.Organization
module Keytree = Gkm_keytree.Keytree
module Key = Gkm_crypto.Key
module Packet = Gkm_transport.Packet
module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Record = Gkm_record.Record
module Metrics = Gkm_obs.Metrics
module Journal = Gkm_obs.Journal
module Obs = Gkm_obs.Obs

type transport =
  | Tcp
  | Udp of { group : Mcast.group; fault : Gkm_net.Netem.cfg; max_dgram : int }

let udp ?(fault = Gkm_net.Netem.none) ?(max_dgram = 60000) group =
  Udp { group; fault; max_dgram }

type config = {
  host : string;
  port : int;
  org : Organization.spec;
  tp : float;
  capacity : int;
  max_frame : int;
  outbox_soft : int;
  outbox_hard : int;
  retx_window : int;
  resync_grace : int;
  resync_budget : int;
  stall_strikes : int;
  max_clients : int;
  sndbuf : int option;
  ticket_horizon : int;
  ticket_rewrap : int;
  ticket_seed : int;
  domains : int;
  transport : transport;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7600;
    org = Organization.Scheme_cfg (Gkm.Scheme.default_config Gkm.Scheme.Tt);
    tp = 1.0;
    capacity = 1024;
    max_frame = Frame.max_frame_default;
    outbox_soft = 256 * 1024;
    outbox_hard = 1024 * 1024;
    retx_window = 8;
    resync_grace = 50;
    resync_budget = 64;
    stall_strikes = 8;
    max_clients = 4096;
    sndbuf = None;
    ticket_horizon = 200;
    ticket_rewrap = 64;
    ticket_seed = 0xC0FFEE;
    domains = 1;
    transport = Tcp;
  }

type stats = {
  mutable accepts : int;
  mutable joins : int;
  mutable leaves : int;
  mutable rekeys : int;
  mutable rekey_packets : int;
  mutable nacks : int;
  mutable retx_packets : int;
  mutable resyncs : int;
  mutable resyncs_denied : int;
  mutable migrations : int;
  mutable soft_skips : int;
  mutable evictions_slow : int;
  mutable evictions_grace : int;
  mutable protocol_errors : int;
  mutable bytes_tx_closed : int;
  mutable bytes_rx_closed : int;
  mutable tickets_issued : int;
  mutable ticket_bytes : int;
  mutable rejoins_0rtt : int;
  mutable rejoins_full : int;
  mutable ticket_rejects : int;
  mutable mcast_datagrams : int;
  mutable mcast_bytes : int;
  mutable mcast_fallback_unicast : int;
  mutable mcast_heartbeats : int;
}

type phase = Pre_hello | Ready | Pending | Member

type client = {
  conn : Conn.t;
  mutable phase : phase;
  mutable member : int;  (* -1 until Join / Resync_req *)
  mutable admitted_at : int;  (* tick_no at admission/resync; -1 before *)
  mutable strikes : int;  (* consecutive soft-skipped intervals *)
  mutable resyncs_granted : int;
      (* recovery resyncs served on this connection binding; against
         cfg.resync_budget — a NACK-flood amplification brake *)
  mutable shard : Shard.entry option;
      (* Some once a shard domain owns the fd's I/O (members in
         sharded mode); None while the tick domain watches it *)
}

type hist = {
  h_epoch : int;
  h_root : int;
  h_packets : Packet.t array;
  h_seal : Record.Seal.t;
      (* the sealer whose keys protected this rekey's fan-out (the DEK
         from before the rekey applied) — retransmissions re-seal with
         fresh sequence numbers from the same generation, which the
         nacking (hence behind) client still holds *)
}

type t = {
  cfg : config;
  loop : Loop.t;
  org : Organization.packed;
  org_id : int;
  listen_fd : Unix.file_descr;
  port : int;
  clients : (int, client) Hashtbl.t;  (* raw fd -> client *)
  member_client : (int, client) Hashtbl.t;  (* member -> live bound client *)
  individual : (int, Key.t) Hashtbl.t;
  profile : (int, Msg.cls * float) Hashtbl.t;  (* member -> join parameters *)
  pending : (int, client) Hashtbl.t;  (* member -> client awaiting admission *)
  disconnected : (int, int) Hashtbl.t;  (* member -> rekey_no at disconnect *)
  leaving : (int, unit) Hashtbl.t;  (* departure enqueued, key cleanup pending *)
  placed : (int, int) Hashtbl.t;  (* member -> last known leaf node *)
  history : (int, hist) Hashtbl.t;  (* rekey_no -> sealed packets, for RETX *)
  tick_times : (int, float) Hashtbl.t;  (* rekey_no -> tick start time *)
  ticket_sealer : Record.Ticket.Sealer.t;
  last_ticket : (int, int * bytes) Hashtbl.t;  (* member -> (epoch, path digest) at issue *)
  ticket_ages : (int * int) Queue.t;
      (* (issue epoch, member) per ticket, oldest first: the age-based
         rewrap schedule. A row whose member was reissued in a later
         epoch (or departed) is stale and dropped when it surfaces. *)
  off_tree : (int, unit) Hashtbl.t;
      (* members whose leaf is in no key tree (QT's queue): no entry
         wraps under their leaf's parent, so every rekey visits them *)
  node_changed : (int, int) Hashtbl.t;  (* node id -> last epoch its key changed *)
  parent_of : (int, int) Hashtbl.t;  (* tree node -> parent, per the last entry wrapped under it *)
  mutable tops : (Keytree.t * (int * int list) option) list;
      (* per tree: its root and the node ids above it, as of the last rekey *)
  mutable prune_at : int;  (* node_changed + parent_of rows that trigger a prune *)
  wide : bool;  (* packet codec: wide (i64 ids) for composed organizations *)
  mcast : Mcast.sender option;  (* Some iff cfg.transport is Udp *)
  pool : Shard.t option;  (* Some iff cfg.domains >= 2 *)
  mutable next_shard : int;  (* round-robin member placement over shards *)
  times_mu : Mutex.t;
      (* guards [tick_times]: an in-process load generator's client
         worker domains read tick_time while the tick domain writes *)
  mutable seal : Record.Seal.t option;  (* keyed by the previous tick's DEK *)
  mutable last_dgram : bytes option;
      (* the latest generation's multicast datagram, verbatim, for
         quiet-tick heartbeats; None when that generation was not
         multicast (tcp transport, unicast fallback, no member to serve) *)
  mutable quiet_ticks : int;  (* ticks since the last framed rekey *)
  mutable rejoin_nonce : int64;  (* counter for REJOIN_ACK counter_seal *)
  mutable next_member : int;
  mutable tick_no : int;  (* every interval, whether or not frames went out *)
  mutable rekey_no : int;  (* dense: only rekeys that produced frames *)
  mutable epoch : int;
  mutable root : int;
  dek_trace : Dek_log.t;
  stats : stats;
  mutable stopped : bool;
}

external int_of_fd : Unix.file_descr -> int = "%identity"

let m_rekeys = Metrics.Counter.v "netd.rekeys"
let m_joins = Metrics.Counter.v "netd.joins"
let m_nacks = Metrics.Counter.v "netd.nacks"
let m_retx = Metrics.Counter.v "netd.retx_packets"
let m_resyncs = Metrics.Counter.v "netd.resyncs"
let m_migrations = Metrics.Counter.v "netd.migrations"
let m_evictions = Metrics.Counter.v "netd.evictions"
let m_soft_skips = Metrics.Counter.v "netd.soft_skips"
let m_clients = Metrics.Gauge.v "netd.clients"
let h_tick = Metrics.Histogram.v "netd.tick_s"
let m_tickets = Metrics.Counter.v "netd.tickets"
let m_mcast = Metrics.Counter.v "netd.mcast_datagrams"
let m_rejoin_0rtt = Metrics.Counter.v "rejoin.0rtt"
let m_rejoin_full = Metrics.Counter.v "rejoin.full_resync"
let h_ticket_age = Metrics.Histogram.v "rejoin.ticket_age_epochs"

let journal name fields =
  if Obs.enabled () then Journal.record ~time:(Unix.gettimeofday ()) name fields

let org_id_of_spec spec =
  match Organization.base_spec spec with
  | Organization.Scheme_cfg c -> (
      match c.Gkm.Scheme.kind with
      | Gkm.Scheme.One_keytree -> 0
      | Gkm.Scheme.Qt -> 1
      | Gkm.Scheme.Tt -> 2
      | Gkm.Scheme.Pt -> 3)
  | Organization.Loss_cfg c -> (
      match c.Gkm.Loss_tree.assignment with
      | Gkm.Loss_tree.By_loss _ -> 4
      | Gkm.Loss_tree.Random _ -> 5)
  | Organization.Composed_cfg _ -> 6
  | Organization.Derived_cfg _ -> assert false (* base_spec strips these *)

let org_tag t = t.org_id

(* With a shard pool, skip/tx accounting lives in per-shard atomics;
   fold it into a copy so callers see one coherent record. Without a
   pool the live record is returned, as always. *)
let stats t =
  match t.pool with
  | None -> t.stats
  | Some pool -> { t.stats with soft_skips = t.stats.soft_skips + Shard.soft_skips pool }

let rekey_no t = t.rekey_no
let epoch t = t.epoch
let port t = t.port
let dek_trace t = Dek_log.to_list t.dek_trace

let organization t = t.org

let bound_tickets t =
  Hashtbl.fold
    (fun member cl acc ->
      if Conn.closed cl.conn then acc else (member, Hashtbl.find_opt t.last_ticket member) :: acc)
    t.member_client []

let node_rows t = Hashtbl.length t.node_changed + Hashtbl.length t.parent_of

let tick_time t ~rekey_no =
  Mutex.protect t.times_mu (fun () -> Hashtbl.find_opt t.tick_times rekey_no)

let n_clients t = Hashtbl.length t.clients
let domains t = t.cfg.domains

let org_size t =
  let module O = (val t.org : Organization.S) in
  O.size ()

(* Includes the UDP data plane: the flat-in-N multicast bytes count
   toward the server's egress exactly like the unicast outboxes. *)
let bytes_tx t =
  Hashtbl.fold
    (fun _ c acc -> acc + Conn.bytes_tx c.conn)
    t.clients
    (t.stats.bytes_tx_closed + t.stats.mcast_bytes)

let bytes_rx t =
  Hashtbl.fold (fun _ c acc -> acc + Conn.bytes_rx c.conn) t.clients t.stats.bytes_rx_closed

(* Per-domain transmitted bytes: index 0 is the tick domain (listener,
   pre-admission handshakes, and anything not yet attributed to a
   shard), indices 1..K the shard flushers — the shard-imbalance view.
   With domains = 1 there is a single cell. *)
let tx_per_domain t =
  match t.pool with
  | None -> [| bytes_tx t |]
  | Some pool ->
      let shards = Shard.tx_per_domain pool in
      let shard_sum = Array.fold_left ( + ) 0 shards in
      Array.append [| max 0 (bytes_tx t - shard_sum) |] shards

(* Forget a connection: close it, deregister it, and account for the
   member it was bound to. [departed] distinguishes a member the
   organization is already rid of (leave, eviction) from a mere
   disconnect, which keeps membership alive for [resync_grace]
   rekeys so the client can come back through RESYNC. [farewell]
   asks the owning shard (when there is one) to flush pending output
   once before letting go, so a final error frame reaches the peer. *)
let drop_client t ?(farewell = false) cl ~departed =
  let key = int_of_fd (Conn.fd cl.conn) in
  (match (t.pool, cl.shard) with
  | Some pool, Some e ->
      (* Deferred close: the owning shard still watches this fd. Mark
         the conn dead (so every caller's [Conn.closed] guard fires
         exactly as in single-domain mode — pending output survives
         the shutdown until close) and ask the shard to let go; byte
         accounting and the actual close(2) happen when its
         [Detached] acknowledgement arrives — closing now would let
         the kernel recycle the descriptor number under the shard's
         epoll set. *)
      Conn.shutdown cl.conn;
      Shard.detach ~farewell pool e
  | _ ->
      t.stats.bytes_tx_closed <- t.stats.bytes_tx_closed + Conn.bytes_tx cl.conn;
      t.stats.bytes_rx_closed <- t.stats.bytes_rx_closed + Conn.bytes_rx cl.conn;
      Loop.remove_fd t.loop (Conn.fd cl.conn);
      Conn.close cl.conn);
  Hashtbl.remove t.clients key;
  if Obs.enabled () then Metrics.Gauge.set m_clients (float_of_int (Hashtbl.length t.clients));
  if cl.member >= 0 then begin
    (match Hashtbl.find_opt t.member_client cl.member with
    | Some bound when bound == cl -> Hashtbl.remove t.member_client cl.member
    | _ -> ());
    if departed then begin
      Hashtbl.remove t.pending cl.member;
      Hashtbl.remove t.disconnected cl.member
    end
    else if cl.phase = Member then
      Hashtbl.replace t.disconnected cl.member t.rekey_no
    (* a Pending member with a dead connection is detected at
       admission time and parked in [disconnected] there *)
  end

(* Write-through: the frame goes out now. A shard-owned fd is written
   only by its shard, so the shard is told to flush this one entry. A
   dead peer surfaces on the loop's next dispatch ([on_conn_writable]),
   never here — callers may be iterating the client tables. *)
let send t cl msg =
  Conn.enqueue_frame cl.conn (Frame.encode msg);
  match (t.pool, cl.shard) with
  | Some pool, Some e -> Shard.flush pool e
  | _ -> ignore (Conn.write_through t.loop cl.conn)

(* Hand a freshly bound member's fd to a shard flusher. From here on
   the tick domain never reads, writes or watches the descriptor: the
   shard decodes inbound traffic and forwards it back as events, and
   outbound frames enqueue through the conn's mutex-guarded write
   side. Round-robin placement keeps the K fd sets balanced; they are
   stable for the life of the connection. *)
let promote t cl =
  match t.pool with
  | None -> ()
  | Some pool ->
      if cl.shard = None && not (Conn.closed cl.conn) then begin
        Loop.remove_fd t.loop (Conn.fd cl.conn);
        let shard = t.next_shard in
        t.next_shard <- (t.next_shard + 1) mod Shard.domains pool;
        cl.shard <- Some (Shard.attach pool ~shard ~conn:cl.conn)
      end

let send_error t cl code detail =
  t.stats.protocol_errors <- t.stats.protocol_errors + 1;
  (* [send] already wrote the frame when the tick domain owns the fd.
     A shard-owned fd must not be written from here; the farewell flag
     makes the owning shard flush the error frame as part of the
     detach, so both modes deliver the same goodbye. *)
  send t cl (Msg.Error_msg { code; detail });
  drop_client t cl ~farewell:true ~departed:false

(* Ticket-path rejections keep the connection open: the client falls
   back to RESYNC (err_ticket) or a fresh JOIN (err_evicted) on the
   same socket. *)
let send_soft_error t cl code detail =
  t.stats.ticket_rejects <- t.stats.ticket_rejects + 1;
  journal "netd.rejoin_reject" [ ("code", Int code); ("detail", Str detail) ];
  send t cl (Msg.Error_msg { code; detail })

(* Erase a retired record-layer generation's key unless it still
   protects retransmittable history or the live seal (the DEK — hence
   its traffic key — can survive many rekeys). *)
let erase_unless_live t ep =
  let shares s = Record.Seal.epoch s == ep in
  let live =
    Option.fold ~none:false ~some:shares t.seal
    || Hashtbl.fold (fun _ h acc -> acc || shares h.h_seal) t.history false
  in
  if not live then Record.Epoch.erase ep

let depart t member =
  let module O = (val t.org : Organization.S) in
  match O.enqueue_departure member with
  | () -> Hashtbl.replace t.leaving member ()
  | exception Invalid_argument _ -> Hashtbl.remove t.individual member

let evict_slow t cl =
  t.stats.evictions_slow <- t.stats.evictions_slow + 1;
  if Obs.enabled () then Metrics.Counter.incr m_evictions;
  journal "netd.evict" [ ("member", Int cl.member); ("reason", Str "slow") ];
  if cl.member >= 0 then depart t cl.member;
  drop_client t cl ~departed:true

let member_path t member =
  let module O = (val t.org : Organization.S) in
  O.member_path member

let in_tree trees node = List.exists (fun tr -> Keytree.node_exists tr node) trees

(* Remember the newest ticket of [member] and schedule its age-based
   rewrap. One row per member and epoch: a reissue within the epoch
   keeps the row already queued. Stale rows are compacted away once
   they outnumber the live ones, so the queue stays O(members). *)
let note_ticket t member digest path =
  let module O = (val t.org : Organization.S) in
  (match Hashtbl.find_opt t.last_ticket member with
  | Some (e, _) when e = t.epoch -> ()
  | _ -> Queue.push (t.epoch, member) t.ticket_ages);
  Hashtbl.replace t.last_ticket member (t.epoch, digest);
  (match path with
  | (leaf, _) :: _ when not (in_tree (O.trees ()) leaf) -> Hashtbl.replace t.off_tree member ()
  | _ -> Hashtbl.remove t.off_tree member);
  if Queue.length t.ticket_ages > (2 * Hashtbl.length t.last_ticket) + 64 then begin
    let rows = Queue.create () in
    Queue.iter
      (fun ((e, m) as row) ->
        match Hashtbl.find_opt t.last_ticket m with
        | Some (e', _) when e' = e -> Queue.push row rows
        | _ -> ())
      t.ticket_ages;
    Queue.clear t.ticket_ages;
    Queue.transfer rows t.ticket_ages
  end

(* Issue (or refresh) a resumption ticket over an established
   connection. A ticket is reissued whenever the member's entitled
   path changes shape — the digest inside must track the current tree
   for the delta-rejoin test to pass — and every [ticket_rewrap]
   epochs regardless, which bounds how old a presented ticket can be
   for a client that stayed connected. Callers may offer any member:
   the stale predicate below decides. *)
let issue_ticket t cl member =
  let module O = (val t.org : Organization.S) in
  if O.is_member member && not (Hashtbl.mem t.leaving member) then begin
    let path = O.member_path member in
    let digest = Record.Ticket.path_digest (List.map fst path) in
    let stale =
      match Hashtbl.find_opt t.last_ticket member with
      | Some (e, d) -> (not (Bytes.equal d digest)) || t.epoch - e >= t.cfg.ticket_rewrap
      | None -> true
    in
    if stale then begin
      let cls, loss =
        match Hashtbl.find_opt t.profile member with Some p -> p | None -> (`Long, 0.0)
      in
      let ticket =
        Record.Ticket.Sealer.issue t.ticket_sealer
          {
            Record.Ticket.member;
            cls;
            loss;
            issued_epoch = t.epoch;
            issued_rekey = t.rekey_no;
            path_digest = digest;
          }
      in
      note_ticket t member digest path;
      t.stats.tickets_issued <- t.stats.tickets_issued + 1;
      t.stats.ticket_bytes <- t.stats.ticket_bytes + Bytes.length ticket;
      if Obs.enabled () then Metrics.Counter.incr m_tickets;
      journal "netd.ticket" [ ("member", Int member); ("epoch", Int t.epoch) ];
      send t cl (Msg.Ticket { member; issued_epoch = t.epoch; ticket })
    end
  end

(* [reason] separates failure recovery (an authenticated RESYNC_REQ,
   or a NACK that fell out of the retransmission window) from the
   routine S->L migration unicast — same wire message, very different
   health signal. Recovery resyncs are budgeted per connection binding
   (a full key path each — a flood of out-of-window NACKs would
   otherwise turn a few bytes of NACK into unbounded unicast); the
   counter resets with the connection, so an honest reconnecting
   client is never locked out. *)
let send_resync t ?(reason = `Recovery) cl member =
  if reason = `Recovery && cl.resyncs_granted >= t.cfg.resync_budget then begin
    t.stats.resyncs_denied <- t.stats.resyncs_denied + 1;
    journal "netd.resync_denied" [ ("member", Int member) ];
    send_error t cl Msg.err_protocol "recovery resync budget exhausted"
  end
  else begin
  if reason = `Recovery then cl.resyncs_granted <- cl.resyncs_granted + 1;
  cl.member <- member;
  cl.phase <- Member;
  cl.admitted_at <- t.tick_no;
  (match Hashtbl.find_opt t.member_client member with
  | Some old when old != cl -> drop_client t old ~departed:false
  | _ -> ());
  Hashtbl.replace t.member_client member cl;
  Hashtbl.remove t.disconnected member;
  (match reason with
  | `Recovery ->
      t.stats.resyncs <- t.stats.resyncs + 1;
      if Obs.enabled () then Metrics.Counter.incr m_resyncs
  | `Migration ->
      t.stats.migrations <- t.stats.migrations + 1;
      if Obs.enabled () then Metrics.Counter.incr m_migrations);
  journal "netd.resync"
    [
      ("member", Int member);
      ("rekey_no", Int t.rekey_no);
      ("reason", Str (match reason with `Recovery -> "recovery" | `Migration -> "migration"));
    ];
  send t cl
    (Msg.Resync
       {
         member;
         rekey_no = t.rekey_no;
         epoch = t.epoch;
         root = t.root;
         path = member_path t member;
       });
  issue_ticket t cl member;
  promote t cl
  end

(* A member with a queued departure ([t.leaving]) must be refused like
   one already evicted — issue_ticket and handle_rejoin already treat
   leavers that way, and granting here would resurrect the binding for
   the remainder of the interval. *)
let handle_resync_req t cl ~member ~epoch ~auth =
  let module O = (val t.org : Organization.S) in
  match Hashtbl.find_opt t.individual member with
  | Some key when O.is_member member && not (Hashtbl.mem t.leaving member) ->
      let expect = Frame.resync_auth ~key ~member ~epoch in
      if Bytes.equal expect auth then send_resync t cl member
      else send_error t cl Msg.err_auth "resync authentication failed"
  | _ -> send_error t cl Msg.err_auth "unknown or departed member"

let handle_nack t cl ~rekey_no ~seqs =
  t.stats.nacks <- t.stats.nacks + 1;
  if Obs.enabled () then Metrics.Counter.incr m_nacks;
  match Hashtbl.find_opt t.history rekey_no with
  | Some h ->
      let total = Array.length h.h_packets in
      let seqs = match seqs with [] -> List.init total Fun.id | l -> l in
      List.iter
        (fun seq ->
          if seq >= 0 && seq < total then begin
            t.stats.retx_packets <- t.stats.retx_packets + 1;
            if Obs.enabled () then Metrics.Counter.incr m_retx;
            let retx =
              Msg.Retx
                {
                  rekey_no;
                  org = org_tag t;
                  epoch = h.h_epoch;
                  root = h.h_root;
                  seq;
                  total;
                  packet = h.h_packets.(seq);
                }
            in
            (* Re-seal under the generation that protected the original
               fan-out — the nacking client is behind on this rekey, so
               that is exactly the key it still holds — with a fresh
               sequence number so the replay window accepts the
               retransmission. *)
            let rseq, ct = Record.Seal.seal h.h_seal (Msg.encode_inner retx) in
            send t cl
              (Msg.Sealed
                 { epoch = Record.Epoch.label (Record.Seal.epoch h.h_seal); seq = rseq; ct })
          end)
        seqs
  | None ->
      (* Out of the retransmission window: catch the member up wholesale.
         The connection is already bound, no fresh authentication needed. *)
      if cl.member >= 0 then send_resync t cl cl.member
      else send_error t cl Msg.err_protocol "NACK before membership"

(* 0-RTT rejoin: a presented ticket re-binds the connection to its
   member in one round trip. The reply is sealed under a key derived
   from the member's individual key, so only the true member can read
   the delta keys — and only the true server could have produced it. *)
let handle_rejoin t cl ~have_epoch ~have_state ~ticket =
  let module O = (val t.org : Organization.S) in
  match Record.Ticket.Sealer.open_ t.ticket_sealer ticket with
  | Error e -> send_soft_error t cl Msg.err_ticket e
  | Ok c -> (
      let member = c.Record.Ticket.member in
      match Hashtbl.find_opt t.individual member with
      | None -> send_soft_error t cl Msg.err_evicted "membership revoked"
      | Some _ when (not (O.is_member member)) || Hashtbl.mem t.leaving member ->
          (* Eviction lockout: member ids are never reused, so a
             departed member's ticket is dead forever. Soft error —
             the same connection may re-enter with a fresh JOIN, as a
             new member with no claim to the old one's keys. *)
          send_soft_error t cl Msg.err_evicted "membership revoked"
      | Some individual ->
          if t.epoch - c.Record.Ticket.issued_epoch > t.cfg.ticket_horizon then
            send_soft_error t cl Msg.err_ticket "ticket beyond rewrap horizon"
          else begin
            let path = O.member_path member in
            let digest = Record.Ticket.path_digest (List.map fst path) in
            (* Delta keys are sound only if the member's entitled path
               kept its shape since the ticket vouched for it: every
               change to a surviving node flows through rekey entries,
               which [node_changed] tracks, but a reshaped path can
               need keys that last changed before the client left. *)
            let delta_ok = have_state && Bytes.equal digest c.Record.Ticket.path_digest in
            let sent_path =
              if delta_ok then
                List.filter
                  (fun (node, _) ->
                    match Hashtbl.find_opt t.node_changed node with
                    | Some e -> e > have_epoch
                    | None -> true)
                  path
              else path
            in
            (* Bind the connection exactly as RESYNC does. *)
            cl.member <- member;
            cl.phase <- Member;
            cl.admitted_at <- t.tick_no;
            (match Hashtbl.find_opt t.member_client member with
            | Some old when old != cl -> drop_client t old ~departed:false
            | _ -> ());
            Hashtbl.replace t.member_client member cl;
            Hashtbl.remove t.disconnected member;
            (* The replacement ticket rides inside the sealed reply. *)
            let fresh =
              Record.Ticket.Sealer.issue t.ticket_sealer
                {
                  c with
                  Record.Ticket.issued_epoch = t.epoch;
                  issued_rekey = t.rekey_no;
                  path_digest = digest;
                }
            in
            note_ticket t member digest path;
            t.stats.tickets_issued <- t.stats.tickets_issued + 1;
            t.stats.ticket_bytes <- t.stats.ticket_bytes + Bytes.length fresh;
            if Obs.enabled () then Metrics.Counter.incr m_tickets;
            let resume =
              {
                Msg.full = not delta_ok;
                rekey_no = t.rekey_no;
                epoch = t.epoch;
                root = t.root;
                path = sent_path;
                ticket = fresh;
              }
            in
            let rs =
              Record.Ticket.resume_key ~individual
                ~issued_epoch:c.Record.Ticket.issued_epoch
            in
            let n = t.rejoin_nonce in
            t.rejoin_nonce <- Int64.succ n;
            let ct = Record.counter_seal rs ~n ~ad:Record.resume_ad (Msg.encode_resume resume) in
            if delta_ok then begin
              t.stats.rejoins_0rtt <- t.stats.rejoins_0rtt + 1;
              if Obs.enabled () then Metrics.Counter.incr m_rejoin_0rtt
            end
            else begin
              t.stats.rejoins_full <- t.stats.rejoins_full + 1;
              if Obs.enabled () then Metrics.Counter.incr m_rejoin_full
            end;
            if Obs.enabled () then
              Metrics.Histogram.observe h_ticket_age
                (float_of_int (t.epoch - c.Record.Ticket.issued_epoch));
            journal "netd.rejoin"
              [
                ("member", Int member);
                ("delta", Bool delta_ok);
                ("keys", Int (List.length sent_path));
              ];
            send t cl (Msg.Rejoin_ack { member; ct });
            promote t cl
          end)

let handle_msg t cl (msg : Msg.t) =
  match (cl.phase, msg) with
  | _, Ping { token } -> send t cl (Msg.Pong { token })
  | _, Pong _ -> ()
  | Pre_hello, Hello { lo; hi } ->
      if lo > Msg.version || hi < Msg.version then
        send_error t cl Msg.err_version "unsupported wire version"
      else begin
        cl.phase <- Ready;
        send t cl
          (Msg.Hello_ack
             {
               version = Msg.version;
               tp_ms = int_of_float (Float.round (t.cfg.tp *. 1000.0));
               max_frame = t.cfg.max_frame;
               capacity = t.cfg.capacity;
             })
      end
  | Pre_hello, _ -> send_error t cl Msg.err_protocol "expected HELLO"
  | Ready, Join { cls; loss } ->
      let module O = (val t.org : Organization.S) in
      let member = t.next_member in
      t.next_member <- t.next_member + 1;
      Hashtbl.replace t.profile member (cls, loss);
      let cls = match cls with `Short -> Gkm.Scheme.Short | `Long -> Gkm.Scheme.Long in
      let key = O.register ~member ~cls ~loss in
      Hashtbl.replace t.individual member key;
      Hashtbl.replace t.pending member cl;
      cl.member <- member;
      cl.phase <- Pending;
      t.stats.joins <- t.stats.joins + 1;
      if Obs.enabled () then Metrics.Counter.incr m_joins;
      journal "netd.join" [ ("member", Int member) ]
  | Ready, Resync_req { member; epoch; auth } -> handle_resync_req t cl ~member ~epoch ~auth
  | Member, Resync_req { member; epoch; auth } when member = cl.member ->
      handle_resync_req t cl ~member ~epoch ~auth
  | (Ready | Member), Rejoin { have_epoch; have_state; ticket } ->
      handle_rejoin t cl ~have_epoch ~have_state ~ticket
  | Member, Nack { rekey_no; seqs } -> handle_nack t cl ~rekey_no ~seqs
  | (Member | Pending), Leave { member } when member = cl.member ->
      t.stats.leaves <- t.stats.leaves + 1;
      journal "netd.leave" [ ("member", Int member) ];
      depart t member;
      drop_client t cl ~departed:true
  | _, _ ->
      send_error t cl Msg.err_protocol
        (Printf.sprintf "unexpected %s" (Msg.tag_name (Msg.tag msg)))

let on_conn_readable t cl () =
  match Conn.on_readable cl.conn with
  | `Msgs msgs -> List.iter (fun m -> if not (Conn.closed cl.conn) then handle_msg t cl m) msgs
  | `Eof msgs ->
      List.iter (fun m -> if not (Conn.closed cl.conn) then handle_msg t cl m) msgs;
      if not (Conn.closed cl.conn) then drop_client t cl ~departed:false
  | `Error (_, msgs) ->
      List.iter (fun m -> if not (Conn.closed cl.conn) then handle_msg t cl m) msgs;
      if not (Conn.closed cl.conn) then drop_client t cl ~departed:false

let on_conn_writable t cl () =
  match Conn.write_through t.loop cl.conn with
  | `Ok -> ()
  | `Eof -> drop_client t cl ~departed:false

(* Shard events, processed on the tick domain. Entries carry their
   conn, and the client table is consulted with an identity check, so
   an event raced by a drop (or by descriptor-number reuse after one)
   falls through harmlessly. *)
let handle_shard_event t ev =
  let lookup e =
    match Hashtbl.find_opt t.clients (Shard.entry_fd e) with
    | Some cl when cl.conn == Shard.entry_conn e -> Some cl
    | _ -> None
  in
  match ev with
  | Shard.Msgs (e, msgs) -> (
      match lookup e with
      | Some cl -> List.iter (fun m -> if not (Conn.closed cl.conn) then handle_msg t cl m) msgs
      | None -> ())
  | Shard.Dead (e, reason) -> (
      match lookup e with
      | Some cl -> (
          match reason with
          | Shard.Io -> drop_client t cl ~departed:false
          | Shard.Slow -> evict_slow t cl)
      | None -> ())
  | Shard.Detached e ->
      (* The shard has let go: settle the byte accounting deferred at
         drop time, then actually close the descriptor. *)
      let conn = Shard.entry_conn e in
      t.stats.bytes_tx_closed <- t.stats.bytes_tx_closed + Conn.bytes_tx conn;
      t.stats.bytes_rx_closed <- t.stats.bytes_rx_closed + Conn.bytes_rx conn;
      Conn.close conn

let process_shard_events t pool =
  List.iter (handle_shard_event t) (Shard.poll_events pool)

let accept_loop t () =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _addr ->
        if Hashtbl.length t.clients >= t.cfg.max_clients then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          (match t.cfg.sndbuf with
          | Some n -> ( try Unix.setsockopt_int fd SO_SNDBUF n with Unix.Unix_error _ -> ())
          | None -> ());
          let conn = Conn.create ~max_frame:t.cfg.max_frame fd in
          let cl =
            {
              conn;
              phase = Pre_hello;
              member = -1;
              admitted_at = -1;
              strikes = 0;
              resyncs_granted = 0;
              shard = None;
            }
          in
          Hashtbl.replace t.clients (int_of_fd fd) cl;
          t.stats.accepts <- t.stats.accepts + 1;
          if Obs.enabled () then
            Metrics.Gauge.set m_clients (float_of_int (Hashtbl.length t.clients));
          Loop.add_fd t.loop fd ~readable:(on_conn_readable t cl)
            ~writable:(on_conn_writable t cl)
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNABORTED | EMFILE | ENFILE), _, _) -> continue := false
  done

(* One rekey interval: advance the organization, admit pending joins
   with their key paths, resync members whose placement moved, and fan
   the encoded packets out to every previously-admitted member,
   honouring the two backpressure tiers.

   A produced rekey can carry zero entries (e.g. a departure that only
   collapses the departed branch): the interval, epoch and admissions
   still advance. If the DEK survived unchanged no frames go out and
   the dense [rekey_no] — the client-visible "runs of REKEY frames"
   counter whose gaps mean loss — does not move; if the collapse moved
   the DEK, a synthesized zero-entry rekey announces it (see below). *)
(* A datagram lost off the TAIL of a quiet period is undetectable by
   gap-based recovery: the client only learns it missed a generation
   when a successor arrives, and none will until the next membership
   change. Re-multicast the latest generation's datagram (the exact
   bytes, so a straggler opens it under the generation its sink still
   holds) on quiet ticks, at power-of-two intervals since the last
   framed rekey — dense right after the generation, O(log quiet-time)
   overall. Members already past it drop the strictly-older epoch
   label without entering the auth streak; members further behind see
   a future label and NACK over TCP as usual. *)
let heartbeat t =
  match (t.mcast, t.last_dgram) with
  | Some sender, Some d ->
      t.quiet_ticks <- t.quiet_ticks + 1;
      let q = t.quiet_ticks in
      if q land (q - 1) = 0 then begin
        let before_d = Mcast.sender_datagrams sender in
        let before_b = Mcast.sender_bytes sender in
        Mcast.send sender d;
        let sent_d = Mcast.sender_datagrams sender - before_d in
        let sent_b = Mcast.sender_bytes sender - before_b in
        t.stats.mcast_heartbeats <- t.stats.mcast_heartbeats + sent_d;
        t.stats.mcast_bytes <- t.stats.mcast_bytes + sent_b;
        if sent_d > 0 then
          journal "netd.mcast"
            [
              ("rekey_no", Int t.rekey_no);
              ("heartbeat", Bool true);
              ("quiet_ticks", Int q);
              ("bytes", Int sent_b);
            ]
      end
  | _ -> ()

(* Whether any bound member predates this tick, i.e. holds the
   pre-rekey generation a datagram would be sealed under. *)
let has_prior_member t =
  let exception Found in
  try
    Hashtbl.iter
      (fun _ cl -> if cl.admitted_at < t.tick_no then raise_notrace Found)
      t.member_client;
    false
  with Found -> true

(* A tree's root and the node ids above it — the organization's DEK
   nodes — read off the path of its first member. *)
let top t tr =
  match Keytree.root_id tr with
  | None -> None
  | Some root -> (
      let exception First of int in
      match Keytree.iter_members_under tr root (fun m -> raise_notrace (First m)) with
      | () -> None
      | exception First m ->
          let rec above = function
            | [] -> []
            | (n, _) :: rest -> if n = root then List.map fst rest else above rest
          in
          Some (root, above (member_path t m)))

(* The ticket pass that closes a rekey. It visits only members whose
   path may have changed shape in [msg] or whose ticket aged out;
   [issue_ticket]'s stale predicate filters the visits, so the pass
   issues exactly the tickets a sweep over every connected member
   would (DESIGN.md Section 13.3). The candidates:
   - members under a tree node whose parent changed: a re-parented
     node always hangs under a parent this rekey refreshed, which
     wraps its key under each child, so the entries name every new
     parent edge;
   - every member of a tree whose root, or the chain above its root,
     changed: a collapse that promotes a child to root, or a DEK
     dropped when a partition empties, leaves no entry behind;
   - members whose leaf is in no tree (QT's queue);
   - members whose ticket reached [ticket_rewrap] epochs.
   It also prunes the per-node tables of dead tree nodes, whenever
   their rows double. *)
let reissue_tickets t (msg : Gkm_lkh.Rekey_msg.t) =
  let module O = (val t.org : Organization.S) in
  let visit member =
    match Hashtbl.find_opt t.member_client member with
    | Some cl when not (Conn.closed cl.conn) -> issue_ticket t cl member
    | _ -> ()
  in
  let trees = O.trees () in
  let tops = List.map (fun tr -> (tr, top t tr)) trees in
  let moved =
    List.filter_map
      (fun (tr, now) ->
        let before = Option.join (List.assq_opt tr t.tops) in
        if before = now then None else Some tr)
      tops
  in
  t.tops <- tops;
  List.iter (fun tr -> Keytree.iter_members tr visit) moved;
  List.iter
    (fun (e : Gkm_lkh.Rekey_msg.entry) ->
      let child = e.wrapped_under in
      let known =
        match Hashtbl.find_opt t.parent_of child with Some p -> p = e.target_node | None -> false
      in
      if child <> e.target_node && not known then
        match List.find_opt (fun tr -> Keytree.node_exists tr child) trees with
        | Some tr ->
            Hashtbl.replace t.parent_of child e.target_node;
            if not (List.memq tr moved) then Keytree.iter_members_under tr child visit
        | None -> ())
    msg.entries;
  List.iter visit (Hashtbl.fold (fun member () acc -> member :: acc) t.off_tree []);
  let rec aged () =
    match Queue.peek_opt t.ticket_ages with
    | Some (e, member) when t.epoch - e >= t.cfg.ticket_rewrap ->
        ignore (Queue.pop t.ticket_ages);
        (match Hashtbl.find_opt t.last_ticket member with
        | Some (e', _) when e' = e -> visit member
        | _ -> ());
        aged ()
    | _ -> ()
  in
  aged ();
  (* Node ids are never reused, so a tree node no live tree holds is
     dead for good. Synthetic nodes (the DEK nodes) have negative ids
     and are few; they stay. *)
  if Hashtbl.length t.node_changed + Hashtbl.length t.parent_of >= t.prune_at then begin
    Hashtbl.filter_map_inplace
      (fun n p -> if in_tree trees n then Some p else None)
      t.parent_of;
    Hashtbl.filter_map_inplace
      (fun n e -> if n < 0 || in_tree trees n then Some e else None)
      t.node_changed;
    t.prune_at <- (2 * (Hashtbl.length t.node_changed + Hashtbl.length t.parent_of)) + 256
  end

let tick t =
  let module O = (val t.org : Organization.S) in
  let t0 = Loop.now t.loop in
  let tickets0 = t.stats.tickets_issued in
  t.tick_no <- t.tick_no + 1;
  (match O.rekey () with
  | None -> heartbeat t
  | Some msg ->
      let packets =
        Array.of_list
          (Packet.encode_entries ~wide:t.wide ~capacity_bytes:t.cfg.capacity msg.entries)
      in
      (* The DEK this rekey left, hashed once for the seal checks and
         the DEK log below. *)
      let dek = Option.map (fun k -> (k, Key.digest k)) (O.group_key ()) in
      (* An entry-less rekey that MOVES the DEK (a departure whose
         branch collapse promotes a key the survivors already hold)
         would otherwise be invisible on the wire: connected members
         cope — their record sinks stay on the old generation, which
         is exactly what the seal keeps using — but a member
         re-entering by REJOIN or RESYNC is handed the current DEK and
         ends up keyed on a generation no fan-out will ever be sealed
         under. Synthesize a framed zero-entry rekey — a pure
         root-pointer update every member can apply from keys it
         already holds — so every generation change is client-visible
         and the seal tracks the live DEK. *)
      let dek_moved =
        match (t.seal, dek) with
        | Some s, Some (_, digest) -> not (Record.Epoch.same_digest (Record.Seal.epoch s) digest)
        | _ -> false
      in
      let packets =
        if Array.length packets = 0 && dek_moved then
          [|
            {
              Packet.seq = 0;
              block = 0;
              index_in_block = 0;
              payload = Bytes.make 2 '\000' (* zero-entry payload *);
            };
          |]
        else packets
      in
      let has_frames = Array.length packets > 0 in
      t.epoch <- msg.epoch;
      t.root <- msg.root_node;
      (* Track when each node's key last changed — the delta-rejoin
         filter. Every entry carries its target's fresh key; the DEK
         node changes on every rekey that produced entries. *)
      List.iter
        (fun (e : Gkm_lkh.Rekey_msg.entry) ->
          Hashtbl.replace t.node_changed e.target_node msg.epoch)
        msg.entries;
      if has_frames then begin
        Hashtbl.replace t.node_changed msg.root_node msg.epoch;
        t.rekey_no <- t.rekey_no + 1;
        Mutex.protect t.times_mu (fun () -> Hashtbl.replace t.tick_times t.rekey_no t0);
        (* Without a seal there is no prior generation, so no member
           predates this rekey and none can NACK it. *)
        Option.iter
          (fun seal ->
            Hashtbl.replace t.history t.rekey_no
              { h_epoch = msg.epoch; h_root = msg.root_node; h_packets = packets; h_seal = seal })
          t.seal;
        (let k = t.rekey_no - t.cfg.retx_window in
         match Hashtbl.find_opt t.history k with
         | None -> ()
         | Some old ->
             Hashtbl.remove t.history k;
             erase_unless_live t (Record.Seal.epoch old.h_seal));
        Mutex.protect t.times_mu (fun () ->
            Hashtbl.remove t.tick_times (t.rekey_no - (4 * t.cfg.retx_window)))
      end;
      (* Admit this interval's joiners: JOIN_ACK carries the full key
         path, the wire form of the registration unicast. *)
      let admitted = Hashtbl.fold (fun m cl acc -> (m, cl) :: acc) t.pending [] in
      List.iter
        (fun (member, cl) ->
          if O.is_member member then begin
            Hashtbl.remove t.pending member;
            if Conn.closed cl.conn then Hashtbl.replace t.disconnected member t.rekey_no
            else begin
              cl.phase <- Member;
              cl.admitted_at <- t.tick_no;
              Hashtbl.replace t.member_client member cl;
              send t cl
                (Msg.Join_ack
                   {
                     member;
                     rekey_no = t.rekey_no;
                     epoch = t.epoch;
                     root = t.root;
                     path = member_path t member;
                   });
              issue_ticket t cl member;
              promote t cl
            end
          end)
        admitted;
      (* Members the organization moved to a new leaf (S->L migration)
         need their fresh key path: a server-initiated RESYNC, the wire
         form of the migration unicast. Newly admitted members already
         got theirs in JOIN_ACK; [placements] persists until the next
         effective rekey, so dedupe against the last known leaf. *)
      List.iter
        (fun (member, leaf) ->
          let prev = Hashtbl.find_opt t.placed member in
          Hashtbl.replace t.placed member leaf;
          if prev <> Some leaf then
            match Hashtbl.find_opt t.member_client member with
            | Some cl when cl.admitted_at < t.tick_no && O.is_member member ->
                send_resync t ~reason:`Migration cl member
            | _ -> ())
        (O.placements ());
      if has_frames then begin
        (* Fan out under the pre-rekey generation, which every
           previously-admitted member holds. Every packet of the
           generation is sealed exactly once, in seq order, on this
           domain (lazily: only when someone will receive it) — the
           sealed records are the ONE payload both transports deliver:
           the UDP datagram carries the (seq, ct) pairs raw, the TCP
           path wraps each in a SEALED frame encoded once and shared by
           every outbox. Either way a member opens identical bytes.
           Without a prior generation no member predates this rekey
           and nothing goes out. *)
        let total = Array.length packets in
        let generation =
          lazy
            (Option.map
               (fun seal ->
                 ( Record.Epoch.label (Record.Seal.epoch seal),
                   Array.init total (fun seq ->
                       Record.Seal.seal seal
                         (Msg.encode_inner
                            (Msg.Rekey
                               {
                                 rekey_no = t.rekey_no;
                                 org = org_tag t;
                                 epoch = t.epoch;
                                 root = t.root;
                                 seq;
                                 total;
                                 packet = packets.(seq);
                               }))) ))
               t.seal)
        in
        let frames =
          lazy
            (match Lazy.force generation with
            | None -> [||]
            | Some (lbl, pairs) ->
                Array.map
                  (fun (rseq, ct) -> Frame.encode (Msg.Sealed { epoch = lbl; seq = rseq; ct }))
                  pairs)
        in
        (* The UDP data plane: one datagram per generation, sent here
           on the tick domain, replacing the per-member unicast. A
           generation too large for one datagram (or with more packets
           than the u8 record count) falls back to TCP unicast for
           this interval — the frames reuse the records already sealed
           for the datagram attempt, so the fallback costs no extra
           sealing and no sequence-number gap. *)
        let mcast_delivered =
          match t.mcast with
          | Some sender when has_prior_member t -> (
              match Lazy.force generation with
              | None -> false
              | Some (lbl, pairs) ->
                  let records = Array.to_list pairs in
                  let max_dgram =
                    match t.cfg.transport with Udp u -> u.max_dgram | Tcp -> assert false
                  in
                  if
                    total <= Gkm_wire.Dgram.max_records
                    && Gkm_wire.Dgram.encoded_size records <= max_dgram
                  then begin
                    let before_d = Mcast.sender_datagrams sender in
                    let before_b = Mcast.sender_bytes sender in
                    let dgram = Gkm_wire.Dgram.encode { Gkm_wire.Dgram.epoch = lbl; records } in
                    Mcast.send sender dgram;
                    t.last_dgram <- Some dgram;
                    let sent_d = Mcast.sender_datagrams sender - before_d in
                    let sent_b = Mcast.sender_bytes sender - before_b in
                    t.stats.mcast_datagrams <- t.stats.mcast_datagrams + sent_d;
                    t.stats.mcast_bytes <- t.stats.mcast_bytes + sent_b;
                    if Obs.enabled () then Metrics.Counter.add m_mcast sent_d;
                    journal "netd.mcast"
                      [
                        ("rekey_no", Int t.rekey_no);
                        ("epoch", Int lbl);
                        ("records", Int total);
                        ("datagrams", Int sent_d);
                        ("bytes", Int sent_b);
                        ("fallback", Bool false);
                      ];
                    true
                  end
                  else begin
                    t.stats.mcast_fallback_unicast <- t.stats.mcast_fallback_unicast + 1;
                    journal "netd.mcast"
                      [
                        ("rekey_no", Int t.rekey_no);
                        ("epoch", Int lbl);
                        ("records", Int total);
                        ("fallback", Bool true);
                      ];
                    false
                  end)
          | _ -> false
        in
        (* Heartbeats only ever repeat the latest generation's exact
           datagram: if this generation went out another way (unicast
           fallback, no member to serve) a stale repeat would be noise. *)
        t.quiet_ticks <- 0;
        if not mcast_delivered then t.last_dgram <- None;
        (* A datagram that went out served every member: nothing goes
           over TCP this interval — not even backpressure accounting,
           since no outbox is growing with the group. *)
        (match t.pool with
        | _ when mcast_delivered -> ()
        | None ->
            let slow = ref [] in
            Hashtbl.iter
              (fun _member cl ->
                if cl.admitted_at < t.tick_no then
                  let backlog = Conn.out_bytes cl.conn in
                  if backlog > t.cfg.outbox_hard then slow := cl :: !slow
                  else if backlog > t.cfg.outbox_soft then begin
                    (* Soft tier: skip this interval's frames; the
                       client sees a rekey_no gap and recovers via
                       NACK/RESYNC. A client stuck above the soft mark
                       for [stall_strikes] consecutive intervals is as
                       good as dead — evict it (skipping stops backlog
                       growth, so the hard mark alone would never
                       trigger). *)
                    cl.strikes <- cl.strikes + 1;
                    t.stats.soft_skips <- t.stats.soft_skips + 1;
                    if Obs.enabled () then Metrics.Counter.incr m_soft_skips;
                    if cl.strikes >= t.cfg.stall_strikes then slow := cl :: !slow
                  end
                  else begin
                    cl.strikes <- 0;
                    Array.iter (fun f -> Conn.enqueue_frame cl.conn f) (Lazy.force frames);
                    ignore (Conn.write_through t.loop cl.conn)
                  end)
              t.member_client;
            List.iter (fun cl -> evict_slow t cl) !slow
        | Some pool ->
            (* Sharded fan-out: encode the frames exactly once, in seq
               order on THIS domain (sealing assigns record sequence
               numbers, so doing it here in a deterministic order keeps
               delivery byte-identical to domains = 1), then hand the
               immutable buffers with each shard's recipient batch to
               its flusher. Backpressure and strike accounting happen
               shard-side against the live outbox depth. *)
            let buckets = Array.make (Shard.domains pool) [] in
            Hashtbl.iter
              (fun _member cl ->
                if cl.admitted_at < t.tick_no then
                  match cl.shard with
                  | Some e ->
                      let s = Shard.entry_shard e in
                      buckets.(s) <- e :: buckets.(s)
                  | None -> () (* promotion failed on a dying conn; it is on its way out *))
              t.member_client;
            Array.iteri
              (fun s recips ->
                if recips <> [] then
                  Shard.fanout pool ~shard:s ~frames:(Lazy.force frames)
                    ~recips:(Array.of_list recips))
              buckets);
        t.stats.rekeys <- t.stats.rekeys + 1;
        t.stats.rekey_packets <- t.stats.rekey_packets + total;
        let fp = match dek with Some (_, d) -> Key.fingerprint_of_digest d | None -> "" in
        Dek_log.add t.dek_trace ~rekey_no:t.rekey_no fp
      end
      else heartbeat t;
      (* Roll the record seal to this rekey's generation — but ONLY
         when frames went out. The seal must track the last
         *client-visible* generation: fan-out is sealed under the
         pre-rekey DEK (the one every previously-admitted member
         holds), and rolling on a tick nobody heard about would lock
         every client out of the next fan-out. DEK-moving entry-less
         ticks are made visible by the synthesized zero-entry rekey
         above, so after every tick the seal equals the live DEK; a
         frameless tick here implies the DEK did not move. The Seal
         object — and its CTR sequence — survives as long as its DEK
         does; same-DEK rolls only relabel, which keeps the
         (key, nonce) stream collision-free. *)
      (match dek with
      | None -> (
          match t.seal with
          | Some old ->
              t.seal <- None;
              erase_unless_live t (Record.Seal.epoch old)
          | None -> ())
      | Some (dek, digest) when has_frames || t.seal = None -> (
          (* [t.seal = None] with a live DEK is the genesis corner: the
             very first admission lands on a frameless tick (a sole
             join produces no entries), yet that member now predates
             the next rekey — without a generation minted for the DEK
             it holds, the next fan-out would have nothing to seal
             under and the member could only NACK its way back in. *)
          match t.seal with
          | Some s when Record.Epoch.same_digest (Record.Seal.epoch s) digest ->
              Record.Epoch.relabel (Record.Seal.epoch s) msg.epoch
          | prev ->
              t.seal <-
                Some (Record.Seal.create (Record.Epoch.of_dek_digest ~dek ~digest ~label:msg.epoch));
              (match prev with
              | Some old -> erase_unless_live t (Record.Seal.epoch old)
              | None -> ()))
      | Some _ -> ());
      reissue_tickets t msg;
      (* The rekey's journal record comes last, so it can carry the
         tick's cost and the tickets it issued. *)
      if has_frames && Obs.enabled () then begin
        let dt = Loop.now t.loop -. t0 in
        Metrics.Counter.incr m_rekeys;
        Metrics.Histogram.observe h_tick dt;
        journal "netd.rekey"
          [
            ("rekey_no", Int t.rekey_no);
            ("epoch", Int t.epoch);
            ("packets", Int (Array.length packets));
            ("members", Int (O.size ()));
            ("dek", Str (match dek with Some (_, d) -> Key.fingerprint_of_digest d | None -> ""));
            ("tick_us", Int (int_of_float (dt *. 1e6)));
            ("tickets", Int (t.stats.tickets_issued - tickets0));
          ]
      end);
  (* Grace sweep: disconnected members that never resynced depart. *)
  let expired =
    Hashtbl.fold
      (fun member since acc ->
        if t.rekey_no - since > t.cfg.resync_grace then member :: acc else acc)
      t.disconnected []
  in
  List.iter
    (fun member ->
      Hashtbl.remove t.disconnected member;
      t.stats.evictions_grace <- t.stats.evictions_grace + 1;
      if Obs.enabled () then Metrics.Counter.incr m_evictions;
      journal "netd.evict" [ ("member", Int member); ("reason", Str "grace") ];
      depart t member)
    expired;
  (* Departures observed by the organization: drop their key material. *)
  let gone =
    Hashtbl.fold (fun m () acc -> if O.is_member m then acc else m :: acc) t.leaving []
  in
  List.iter
    (fun m ->
      Hashtbl.remove t.leaving m;
      Hashtbl.remove t.individual m;
      Hashtbl.remove t.placed m;
      Hashtbl.remove t.profile m;
      Hashtbl.remove t.last_ticket m;
      Hashtbl.remove t.off_tree m)
    gone

let rec arm_tick t =
  Loop.after t.loop ~delay:t.cfg.tp (fun () ->
      if not t.stopped then begin
        tick t;
        arm_tick t
      end)

let tick_now t = tick t

let create ~loop (cfg : config) =
  if cfg.tp <= 0.0 then invalid_arg "Netd.Server: tp must be positive";
  if cfg.capacity < 64 then invalid_arg "Netd.Server: capacity too small";
  if cfg.outbox_soft > cfg.outbox_hard then
    invalid_arg "Netd.Server: outbox_soft must not exceed outbox_hard";
  if cfg.ticket_horizon < 0 then invalid_arg "Netd.Server: ticket_horizon must be non-negative";
  if cfg.ticket_rewrap < 1 then invalid_arg "Netd.Server: ticket_rewrap must be positive";
  if cfg.domains < 1 || cfg.domains > 64 then
    invalid_arg "Netd.Server: domains must be in [1, 64]";
  (* Wire clients only speak the wrap-based rekey protocol; derived
     key-refresh is simulator-only until clients learn the notices. *)
  if Organization.spec_keys_mode cfg.org = Gkm_keytree.Keytree.Derived then
    invalid_arg "Netd.Server: derived keys mode is not supported over the wire";
  let org = Organization.create cfg.org in
  let org_id = org_id_of_spec cfg.org in
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd SO_REUSEADDR true;
      Unix.bind listen_fd (ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen listen_fd 511;
      Unix.set_nonblock listen_fd;
      let port =
        match Unix.getsockname listen_fd with
        | ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      let mcast =
        match cfg.transport with
        | Tcp -> None
        | Udp u -> (
            match
              Mcast.create_sender ~fault:u.fault ~fault_seed:(cfg.ticket_seed lxor 0x6D63)
                u.group
            with
            | Ok s -> Some s
            | Error e -> invalid_arg ("Netd.Server: udp transport: " ^ e))
      in
      {
        cfg;
        loop;
        org;
        org_id;
        listen_fd;
        port;
        clients = Hashtbl.create 256;
        member_client = Hashtbl.create 256;
        individual = Hashtbl.create 256;
        profile = Hashtbl.create 256;
        pending = Hashtbl.create 64;
        disconnected = Hashtbl.create 64;
        leaving = Hashtbl.create 64;
        placed = Hashtbl.create 256;
        history = Hashtbl.create 16;
        tick_times = Hashtbl.create 64;
        ticket_sealer = Record.Ticket.Sealer.create ~seed:cfg.ticket_seed;
        last_ticket = Hashtbl.create 256;
        ticket_ages = Queue.create ();
        off_tree = Hashtbl.create 64;
        node_changed = Hashtbl.create 1024;
        parent_of = Hashtbl.create 1024;
        tops = [];
        prune_at = 256;
        (* Composed organizations stride member bands by 10^9 node ids
           — beyond i32 — so they need the wide packet codec. *)
        wide = org_id = 6;
        mcast;
        (* domains = 1 is the single-threaded server, inline fan-out
           and all — no pool, no extra domains, today's exact code
           path. Flusher domains only exist from 2 up. *)
        pool =
          (if cfg.domains >= 2 then
             Some
               (Shard.create ~domains:cfg.domains ~outbox_soft:cfg.outbox_soft
                  ~outbox_hard:cfg.outbox_hard ~stall_strikes:cfg.stall_strikes)
           else None);
        next_shard = 0;
        times_mu = Mutex.create ();
        seal = None;
        last_dgram = None;
        quiet_ticks = 0;
        rejoin_nonce = 0L;
        next_member = 1;
        tick_no = 0;
        rekey_no = 0;
        epoch = 0;
        root = 0;
        dek_trace = Dek_log.create ();
        stats =
          {
            accepts = 0;
            joins = 0;
            leaves = 0;
            rekeys = 0;
            rekey_packets = 0;
            nacks = 0;
            retx_packets = 0;
            resyncs = 0;
            resyncs_denied = 0;
            migrations = 0;
            soft_skips = 0;
            evictions_slow = 0;
            evictions_grace = 0;
            protocol_errors = 0;
            bytes_tx_closed = 0;
            bytes_rx_closed = 0;
            tickets_issued = 0;
            ticket_bytes = 0;
            rejoins_0rtt = 0;
            rejoins_full = 0;
            ticket_rejects = 0;
            mcast_datagrams = 0;
            mcast_bytes = 0;
            mcast_fallback_unicast = 0;
            mcast_heartbeats = 0;
          };
        stopped = false;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  Loop.add_fd loop listen_fd ~readable:(accept_loop t) ~writable:ignore;
  (match t.pool with
  | Some pool ->
      Loop.add_fd loop (Shard.event_fd pool)
        ~readable:(fun () ->
          Shard.on_event_readable pool;
          process_shard_events t pool)
        ~writable:ignore
  | None -> ());
  arm_tick t;
  journal "netd.listen"
    [ ("host", Str cfg.host); ("port", Int t.port); ("org", Str (Organization.spec_name cfg.org)) ];
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Loop.remove_fd t.loop t.listen_fd;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.mcast with Some s -> Mcast.close_sender s | None -> ());
    let cls = Hashtbl.fold (fun _ cl acc -> cl :: acc) t.clients [] in
    List.iter (fun cl -> drop_client t cl ~departed:false) cls;
    match t.pool with
    | None -> ()
    | Some pool ->
        (* The drops above queued a Detach per shard-owned client.
           [Shard.stop] lets each shard process its queue tail (so
           every Detach is acknowledged), joins the domains, then we
           drain the final events here — that is where the deferred
           close(2)s happen. *)
        Loop.remove_fd t.loop (Shard.event_fd pool);
        Shard.stop pool;
        process_shard_events t pool
  end
