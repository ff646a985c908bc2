module Organization = Gkm.Organization
module Keytree = Gkm_keytree.Keytree
module Key = Gkm_crypto.Key
module Packet = Gkm_transport.Packet
module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Record = Gkm_record.Record
module Journal = Gkm_obs.Journal
module Obs = Gkm_obs.Obs

type transport = Tcp | Udp of Mcast.group

let udp group = Udp group

(* The largest rekey datagram the server multicasts: inside the 64 KiB
   UDP payload ceiling with headroom for the IP and UDP headers. A
   bound set by the transport, not a tuning knob; a larger generation
   goes out over TCP for its interval. *)
let max_dgram = 60000

(* Rekeys whose frames are kept to answer NACKs. A NACK for an older
   one is answered with a full RESYNC, one key path, so the window only
   has to cover a member that misses a few rekeys in a row. *)
let history_window = 8

(* Consecutive soft-skipped intervals before a stalled reader is
   evicted: a skip stops its backlog growing, so [outbox_hard] alone
   never catches a reader that stopped for good. *)
let stall_strikes = 8

type config = {
  host : string;
  port : int;
  org : Organization.spec;
  tp : float;
  capacity : int;
  outbox_soft : int;
  outbox_hard : int;
  resync_grace : int;
  resync_budget : int;
  max_clients : int;
  sndbuf : int option;
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
    outbox_soft = 256 * 1024;
    outbox_hard = 1024 * 1024;
    resync_grace = 50;
    resync_budget = 64;
    max_clients = 4096;
    sndbuf = None;
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
  mutable nack_frames : int;
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
  mutable wraps_pruned : int;
}

type phase = Ready | Pending | Member

type client = {
  conn : Conn.t;
  mutable phase : phase;
  mutable member : int;  (* -1 until Join / Resync_req *)
  mutable admitted_at : int;  (* tick_no at admission/resync; -1 before *)
  mutable strikes : int;  (* consecutive soft-skipped intervals *)
  mutable resyncs_granted : int;
      (* recovery resyncs served on this connection binding; against
         cfg.resync_budget — a NACK-flood amplification brake *)
  mutable held : bool;
      (* replies queue unwritten while one read's messages are handled,
         so each flight the peer sent is answered in one write *)
}

(* The fan-out lanes: K persistent worker domains that write one
   rekey's shared frames into K disjoint, contiguous slices of the
   recipients while the tick domain waits (fork-join). The tick domain
   owns every conn; a lane touches its slice only between [run]'s
   hand-off and join, both taken under [mu], which orders the lane's
   writes after the tick's and the tick's next use after the lane's. *)
module Lanes = struct
  type t = {
    mu : Mutex.t;
    cond : Condition.t;  (* broadcast on a new job and on the last lane done *)
    mutable job : int;  (* jobs handed out so far *)
    mutable frames : bytes array;
    mutable recips : Conn.t array;
    mutable busy : int;  (* lanes still writing the current job *)
    mutable failed : (exn * Printexc.raw_backtrace) option;  (* a lane's first exception *)
    mutable stopping : bool;
    tx : int array;  (* bytes written by each lane; cell i only by lane i *)
    mutable workers : unit Domain.t array;
  }

  (* Lane [i] of [k] takes recipients [i*n/k, (i+1)*n/k): slice sizes
     differ by at most one. *)
  let write_slice t i =
    let n = Array.length t.recips and k = Array.length t.tx in
    for j = i * n / k to ((i + 1) * n / k) - 1 do
      let c = t.recips.(j) in
      let before = Conn.bytes_tx c in
      Array.iter (Conn.enqueue_frame c) t.frames;
      ignore (Conn.flush c);
      t.tx.(i) <- t.tx.(i) + Conn.bytes_tx c - before
    done

  (* Every job ends in [busy - 1], whatever the slice raised, so [run]
     is never left waiting; the exception travels to the tick domain. *)
  let body t i =
    let rec serve seen =
      Mutex.lock t.mu;
      while t.job = seen && not t.stopping do
        Condition.wait t.cond t.mu
      done;
      let job = t.job and stopping = t.stopping in
      Mutex.unlock t.mu;
      if not stopping then begin
        let failed =
          match write_slice t i with
          | () -> None
          | exception e -> Some (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.mu;
        if Option.is_none t.failed then t.failed <- failed;
        t.busy <- t.busy - 1;
        if t.busy = 0 then Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        serve job
      end
    in
    serve 0

  let stop t =
    Mutex.lock t.mu;
    t.stopping <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.workers

  let create k =
    let t =
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        job = 0;
        frames = [||];
        recips = [||];
        busy = 0;
        failed = None;
        stopping = false;
        tx = Array.make k 0;
        workers = [||];
      }
    in
    (* Backtrace recording is per domain: a lane inherits the tick
       domain's setting, so a re-raised lane exception keeps its trace. *)
    let record = Printexc.backtrace_status () in
    let rec spawn i acc =
      if i = k then Array.of_list (List.rev acc)
      else
        match
          Domain.spawn (fun () ->
              Printexc.record_backtrace record;
              body t i)
        with
        | d -> spawn (i + 1) (d :: acc)
        | exception e ->
            t.workers <- Array.of_list acc;
            stop t;
            raise e
    in
    t.workers <- spawn 0 [];
    t

  (* Enqueue [frames] on every conn of [recips] and flush them, K
     lanes in parallel; returns once every lane is done, re-raising a
     lane's exception here. *)
  let run t ~frames ~recips =
    Mutex.lock t.mu;
    t.frames <- frames;
    t.recips <- recips;
    t.busy <- Array.length t.workers;
    t.job <- t.job + 1;
    Condition.broadcast t.cond;
    while t.busy > 0 do
      Condition.wait t.cond t.mu
    done;
    let failed = t.failed in
    t.failed <- None;
    t.frames <- [||];
    t.recips <- [||];
    Mutex.unlock t.mu;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failed
end

(* Record sequence numbers must never repeat under one traffic key,
   and a DEK can come back: TT makes the L root's key the DEK again
   whenever S empties, and a sole member's leaf key is the DEK again
   once the member that split it leaves. So a DEK has one sealer for
   as long as it protects the live seal or can return. It can return
   only while a member still holds it (a departure or a move refreshes
   every key on the member's old path), so each row names a member
   that held the DEK when it was minted, and the row goes once that
   member no longer does. *)
type dek_seal = { d_seal : Record.Seal.t; d_dek : Key.t; d_holder : int option }

type t = {
  cfg : config;
  loop : Loop.t;
  org : Organization.packed;
  org_id : int;
  listen_fd : Unix.file_descr;
  port : int;
  clients : (int, client) Hashtbl.t;  (* raw fd -> client *)
  member_client : (int, client) Hashtbl.t;  (* member -> live bound client *)
  pending : (int, client) Hashtbl.t;  (* member -> client awaiting admission *)
  disconnected : (int, int) Hashtbl.t;  (* member -> rekey_no at disconnect *)
  leaving : (int, unit) Hashtbl.t;  (* departure enqueued, key cleanup pending *)
  placed : (int, int * int) Hashtbl.t;
      (* member -> (last known leaf node, epoch it was placed there) *)
  history : (int, bytes array) Hashtbl.t;
      (* rekey_no -> its fan-out's SEALED frames, resent verbatim on NACK *)
  ticket_sealer : Record.Ticket.Sealer.t;
  node_changed : (int, int) Hashtbl.t;  (* node id -> last epoch its key changed *)
  mutable prune_at : int;  (* node_changed rows that trigger a prune *)
  mcast : Mcast.sender option;  (* Some iff cfg.transport is Udp *)
  lanes : Lanes.t option;  (* Some iff cfg.domains >= 2 *)
  mutable seal : Record.Seal.t option;  (* keyed by the previous tick's DEK *)
  seals : (string, dek_seal) Hashtbl.t;  (* DEK digest -> its one sealer *)
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

let journal name fields =
  if Obs.enabled () then Journal.record ~time:(Unix.gettimeofday ()) name fields

let org_id_of_spec = function
  | Organization.Scheme_cfg c -> (
      match c.Gkm.Scheme.kind with
      | Gkm.Scheme.One_keytree -> 0
      | Gkm.Scheme.Qt -> 1
      | Gkm.Scheme.Tt -> 2
      | Gkm.Scheme.Pt -> 3)
  | Organization.Composed_cfg { kind = Gkm.Scheme.One_keytree; assignment = By_loss _; _ } -> 4
  | Organization.Composed_cfg { kind = Gkm.Scheme.One_keytree; assignment = Random _; _ } -> 5
  | Organization.Composed_cfg _ -> 6

let org_tag t = t.org_id

let stats t = t.stats

let rekey_no t = t.rekey_no
let epoch t = t.epoch
let port t = t.port
let dek_trace t = Dek_log.to_list t.dek_trace

let organization t = t.org

let bound_members t =
  Hashtbl.fold
    (fun member cl acc -> if Conn.closed cl.conn then acc else member :: acc)
    t.member_client []

let node_rows t = Hashtbl.length t.node_changed

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

(* Per-domain transmitted bytes: index 0 is the tick domain (unicast
   replies, the multicast data plane and whatever a lane left queued),
   indices 1..K the fan-out lanes. With domains = 1 there is a single
   cell. *)
let tx_per_domain t =
  match t.lanes with
  | None -> [| bytes_tx t |]
  | Some { Lanes.tx; _ } -> Array.append [| max 0 (bytes_tx t - Array.fold_left ( + ) 0 tx) |] tx

(* Forget a connection: close it, deregister it, and account for the
   member it was bound to. [departed] distinguishes a member the
   organization is already rid of (leave, eviction) from a mere
   disconnect, which keeps membership alive for [resync_grace]
   rekeys so the client can come back through RESYNC. *)
let drop_client t cl ~departed =
  journal "netd.drop" [ ("member", Int cl.member); ("departed", Bool departed) ];
  (* What is queued, a held reply or an ERROR farewell, goes out
     before the close, best effort. *)
  ignore (Conn.flush cl.conn);
  t.stats.bytes_tx_closed <- t.stats.bytes_tx_closed + Conn.bytes_tx cl.conn;
  t.stats.bytes_rx_closed <- t.stats.bytes_rx_closed + Conn.bytes_rx cl.conn;
  Hashtbl.remove t.clients (int_of_fd (Conn.fd cl.conn));
  Loop.remove_fd t.loop (Conn.fd cl.conn);
  Conn.close cl.conn;
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

(* Write-through: the frame goes out now, or with the rest of the
   flight once the read that [held] the conn is handled. A dead peer
   surfaces on the loop's next dispatch ([on_conn_writable]), never
   here — callers may be iterating the client tables. *)
let send_frame t cl frame =
  Conn.enqueue_frame cl.conn frame;
  if not cl.held then ignore (Conn.write_through t.loop cl.conn)

let send t cl msg = send_frame t cl (Frame.encode msg)

(* The drop flushes the error frame before it closes the fd: the
   peer's farewell, best effort. *)
let send_error t cl code detail =
  t.stats.protocol_errors <- t.stats.protocol_errors + 1;
  send t cl (Msg.Error_msg { code; detail });
  drop_client t cl ~departed:false

(* Ticket-path rejections keep the connection open: the client falls
   back to RESYNC (err_ticket) or a fresh JOIN (err_evicted) on the
   same socket. *)
let send_soft_error t cl code detail =
  t.stats.ticket_rejects <- t.stats.ticket_rejects + 1;
  journal "netd.rejoin_reject" [ ("code", Int code); ("detail", Str detail) ];
  send t cl (Msg.Error_msg { code; detail })

let depart t member =
  let module O = (val t.org : Organization.S) in
  match O.enqueue_departure member with
  | () -> Hashtbl.replace t.leaving member ()
  | exception Invalid_argument _ -> ()

let evict_slow t cl =
  t.stats.evictions_slow <- t.stats.evictions_slow + 1;
  journal "netd.evict" [ ("member", Int cl.member); ("reason", Str "slow") ];
  if cl.member >= 0 then depart t cl.member;
  drop_client t cl ~departed:true

let member_path t member =
  let module O = (val t.org : Organization.S) in
  O.member_path member

let in_tree trees node = List.exists (fun tr -> Keytree.node_exists tr node) trees

(* Seal a ticket for [member], issued now, and count it. A ticket only
   names its member: the server reads back [member] and
   [issued_epoch], so it never goes stale and nothing reissues it.
   The fields it does not read hold constants. *)
let mint_ticket t member =
  let ticket =
    Record.Ticket.Sealer.issue t.ticket_sealer
      {
        Record.Ticket.member;
        cls = `Long;
        loss = 0.0;
        issued_epoch = t.epoch;
        issued_rekey = t.rekey_no;
        path_digest = Bytes.make 16 '\000';
      }
  in
  t.stats.tickets_issued <- t.stats.tickets_issued + 1;
  t.stats.ticket_bytes <- t.stats.ticket_bytes + Bytes.length ticket;
  journal "netd.ticket" [ ("member", Int member); ("epoch", Int t.epoch) ];
  ticket

(* Bind [cl] to [member] as its live connection, admitted this tick,
   replacing any older binding; the member is no longer disconnected. *)
let bind_member t cl member =
  cl.member <- member;
  cl.phase <- Member;
  cl.admitted_at <- t.tick_no;
  (match Hashtbl.find_opt t.member_client member with
  | Some old when old != cl -> drop_client t old ~departed:false
  | _ -> ());
  Hashtbl.replace t.member_client member cl;
  Hashtbl.remove t.disconnected member

(* RESYNC is the one key-path unicast; [reason] says why it goes out.
   An admission is the registration unicast, counted as a join when
   the JOIN arrived. Failure recovery (an authenticated RESYNC_REQ, or
   a NACK that fell out of the history window) and the routine S->L
   migration are the same wire message with very different health
   signals. Recovery resyncs are budgeted per connection binding (a
   full key path each — a flood of out-of-window NACKs would otherwise
   turn a few bytes of NACK into unbounded unicast); the counter
   resets with the connection, so an honest reconnecting client is
   never locked out. An admission carries the member's first ticket
   and a recovery RESYNC a fresh one, since the client may have
   dropped a refused one; a migrated member keeps the ticket it
   holds. *)
let send_resync t ?(reason = `Recovery) ?path cl member =
  if reason = `Recovery && cl.resyncs_granted >= t.cfg.resync_budget then begin
    t.stats.resyncs_denied <- t.stats.resyncs_denied + 1;
    journal "netd.resync_denied" [ ("member", Int member) ];
    send_error t cl Msg.err_protocol "recovery resync budget exhausted"
  end
  else begin
  bind_member t cl member;
  let counted what =
    journal "netd.resync"
      [ ("member", Int member); ("rekey_no", Int t.rekey_no); ("reason", Str what) ]
  in
  (match reason with
  | `Admission -> ()
  | `Recovery ->
      cl.resyncs_granted <- cl.resyncs_granted + 1;
      t.stats.resyncs <- t.stats.resyncs + 1;
      counted "recovery"
  | `Migration ->
      t.stats.migrations <- t.stats.migrations + 1;
      counted "migration");
  send t cl
    (Msg.Resync
       {
         member;
         rekey_no = t.rekey_no;
         epoch = t.epoch;
         root = t.root;
         path = (match path with Some p -> p | None -> member_path t member);
         ticket = (match reason with `Migration -> Bytes.empty | _ -> mint_ticket t member);
       })
  end

(* The member's key path while it is a member with no departure queued
   ([t.leaving]): a leaver is refused like one already evicted, since
   granting it would resurrect the binding for the remainder of the
   interval. The head of the path is the member's individual key: the
   organization carries it onto the new leaf when it migrates the
   member. *)
let live_path t member =
  let module O = (val t.org : Organization.S) in
  if O.is_member member && not (Hashtbl.mem t.leaving member) then Some (O.member_path member)
  else None

let handle_resync_req t cl ~member ~epoch ~auth =
  match live_path t member with
  | Some ((_, key) :: _ as path) ->
      let expect = Frame.resync_auth ~key ~member ~epoch in
      if Bytes.equal expect auth then send_resync t ~path cl member
      else send_error t cl Msg.err_auth "resync authentication failed"
  | _ -> send_error t cl Msg.err_auth "unknown or departed member"

let handle_nack t cl ~rekey_no ~seqs =
  t.stats.nacks <- t.stats.nacks + 1;
  match Hashtbl.find_opt t.history rekey_no with
  | Some frames ->
      let total = Array.length frames in
      (* The original SEALED frames, byte for byte: the nacking client
         is behind on this rekey, so it still holds the generation they
         were sealed under, and its sink never marked a record it did
         not keep. Deduplicated: one NACK costs at most [total] frames,
         however often it repeats a seq. *)
      let seqs = match seqs with [] -> List.init total Fun.id | l -> List.sort_uniq compare l in
      List.iter
        (fun seq ->
          if seq >= 0 && seq < total then begin
            t.stats.nack_frames <- t.stats.nack_frames + 1;
            send_frame t cl frames.(seq)
          end)
        seqs
  | None ->
      (* Out of the history window: catch the member up wholesale.
         The connection is already bound, no fresh authentication needed. *)
      if cl.member >= 0 then send_resync t cl cl.member
      else send_error t cl Msg.err_protocol "NACK before membership"

(* 0-RTT rejoin: a presented ticket re-binds the connection to its
   member in one round trip. The reply is sealed under a key derived
   from the member's individual key, so only the true member can read
   the delta keys — and only the true server could have produced it.
   The client keeps presenting the ticket it holds: the reply never
   carries a new one. *)
let handle_rejoin t cl ~have_epoch ~have_state ~ticket =
  match Record.Ticket.Sealer.open_ t.ticket_sealer ticket with
  | Error e -> send_soft_error t cl Msg.err_ticket e
  | Ok c -> (
      let member = c.Record.Ticket.member in
      match live_path t member with
      | None | Some [] ->
          (* Eviction lockout: member ids are never reused, so a
             departed member's ticket is dead forever. Soft error —
             the same connection may re-enter with a fresh JOIN, as a
             new member with no claim to the old one's keys. *)
          send_soft_error t cl Msg.err_evicted "membership revoked"
      | Some ((_, individual) :: _ as path) ->
          (* Delta keys suffice while the member's leaf stayed put
             since [have_epoch]: a node joins a fixed leaf's path only
             by a split or a re-parent, and both refresh its key, so
             [node_changed] names every key the client lacks
             (DESIGN.md Section 13.3). A moved leaf gets the full
             path. *)
          let delta_ok =
            have_state
            &&
            match Hashtbl.find_opt t.placed member with
            | Some (_, moved) -> moved <= have_epoch
            | None -> false
          in
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
          bind_member t cl member;
          let resume =
            {
              Msg.full = not delta_ok;
              rekey_no = t.rekey_no;
              epoch = t.epoch;
              root = t.root;
              path = sent_path;
              ticket = Bytes.empty;
            }
          in
          let rs =
            Record.Ticket.resume_key ~individual ~issued_epoch:c.Record.Ticket.issued_epoch
          in
          let n = t.rejoin_nonce in
          t.rejoin_nonce <- Int64.succ n;
          let ct = Record.counter_seal rs ~n ~ad:Record.resume_ad (Msg.encode_resume resume) in
          if delta_ok then t.stats.rejoins_0rtt <- t.stats.rejoins_0rtt + 1
          else t.stats.rejoins_full <- t.stats.rejoins_full + 1;
          journal "netd.rejoin"
            [
              ("member", Int member);
              ("delta", Bool delta_ok);
              ("keys", Int (List.length sent_path));
              ("ticket_age", Int (t.epoch - c.Record.Ticket.issued_epoch));
            ];
          send t cl (Msg.Rejoin_ack { member; ct }))

let handle_msg t cl (msg : Msg.t) =
  match (cl.phase, msg) with
  | _, Ping { token } -> send t cl (Msg.Pong { token })
  | _, Pong _ -> ()
  | Ready, Join { cls; loss } ->
      let module O = (val t.org : Organization.S) in
      let member = t.next_member in
      t.next_member <- t.next_member + 1;
      let cls = match cls with `Short -> Gkm.Scheme.Short | `Long -> Gkm.Scheme.Long in
      ignore (O.register ~member ~cls ~loss);
      Hashtbl.replace t.pending member cl;
      cl.member <- member;
      cl.phase <- Pending;
      t.stats.joins <- t.stats.joins + 1;
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

(* Every reply to one read's messages leaves in one write, after the
   last is handled. A frame of another wire version draws
   [err_version], and then the close. *)
let on_conn_readable t cl () =
  let handle msgs =
    cl.held <- true;
    List.iter (fun m -> if not (Conn.closed cl.conn) then handle_msg t cl m) msgs;
    cl.held <- false
  in
  match Conn.on_readable cl.conn with
  | `Msgs msgs ->
      handle msgs;
      if not (Conn.closed cl.conn) then ignore (Conn.write_through t.loop cl.conn)
  | `Eof msgs | `Error (Frame.Corrupt _, msgs) ->
      handle msgs;
      if not (Conn.closed cl.conn) then drop_client t cl ~departed:false
  | `Error (Frame.Version _, msgs) ->
      handle msgs;
      if not (Conn.closed cl.conn) then
        send_error t cl Msg.err_version "unsupported wire version"

let on_conn_writable t cl () =
  match Conn.write_through t.loop cl.conn with
  | `Ok -> ()
  | `Eof -> drop_client t cl ~departed:false

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
          let conn = Conn.create fd in
          let cl =
            {
              conn;
              phase = Ready;
              member = -1;
              admitted_at = -1;
              strikes = 0;
              resyncs_granted = 0;
              held = false;
            }
          in
          Hashtbl.replace t.clients (int_of_fd fd) cl;
          t.stats.accepts <- t.stats.accepts + 1;
          Loop.add_fd t.loop fd ~readable:(on_conn_readable t cl)
            ~writable:(on_conn_writable t cl)
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNABORTED | EMFILE | ENFILE), _, _) -> continue := false
  done

(* Put [d] on the group and count its bytes. *)
let mcast_send t sender d =
  Mcast.send sender d;
  t.stats.mcast_bytes <- t.stats.mcast_bytes + Bytes.length d

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
        mcast_send t sender d;
        t.stats.mcast_heartbeats <- t.stats.mcast_heartbeats + 1;
        journal "netd.mcast"
          [
            ("rekey_no", Int t.rekey_no);
            ("heartbeat", Bool true);
            ("quiet_ticks", Int q);
            ("bytes", Int (Bytes.length d));
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

(* Node ids are never reused, so a tree node no live tree holds is
   dead for good, and [node_changed] would otherwise keep a row for
   every node ever rekeyed. Whenever the rows double, those of dead
   tree nodes go. Synthetic nodes (the DEK nodes) have negative ids and
   are few; they stay. *)
let prune_nodes t =
  let module O = (val t.org : Organization.S) in
  if Hashtbl.length t.node_changed >= t.prune_at then begin
    let trees = O.trees () in
    Hashtbl.filter_map_inplace
      (fun n e -> if n < 0 || in_tree trees n then Some e else None)
      t.node_changed;
    t.prune_at <- (2 * Hashtbl.length t.node_changed) + 256
  end

(* The sealer of [dek]: the one it already has if it is live or has
   come back, else a fresh one at seq 0. *)
let seal_for t ~dek ~digest ~label =
  let module O = (val t.org : Organization.S) in
  let key = Bytes.to_string digest in
  match Hashtbl.find_opt t.seals key with
  | Some row ->
      Record.Epoch.relabel (Record.Seal.epoch row.d_seal) label;
      row.d_seal
  | None ->
      let holder =
        let exception Found of int in
        match Hashtbl.iter (fun m _ -> if O.is_member m then raise_notrace (Found m)) t.placed with
        | () -> None
        | exception Found m -> Some m
      in
      let seal = Record.Seal.create (Record.Epoch.of_dek_digest ~dek ~digest ~label) in
      Hashtbl.replace t.seals key { d_seal = seal; d_dek = dek; d_holder = holder };
      seal

(* Drop every sealer that is not the live seal and whose DEK no member
   holds any more, erasing its traffic key. History keeps sealed
   frames, not sealers, so no retransmission needs one. *)
let retire_seals t =
  let module O = (val t.org : Organization.S) in
  let used s = Option.fold ~none:false ~some:(fun live -> live == s) t.seal in
  let held row =
    match row.d_holder with
    | Some m when O.is_member m ->
        List.exists (fun (_, k) -> Key.equal k row.d_dek) (O.member_path m)
    | _ -> false
  in
  Hashtbl.filter_map_inplace
    (fun _ row ->
      if used row.d_seal || held row then Some row
      else begin
        Record.Epoch.erase (Record.Seal.epoch row.d_seal);
        None
      end)
    t.seals

(* The one fan-out backpressure policy, on a recipient's outbox
   backlog: send at or below [outbox_soft] (strikes reset); above it
   skip this rekey, and the member recovers the rekey_no gap through
   NACK/RESYNC; evict above [outbox_hard]. Skipping halts backlog
   growth, so a permanently stalled reader would never cross the hard
   mark: the [stall_strikes]-th consecutive skip evicts it too. *)
let backpressure t cl =
  let backlog = Conn.out_bytes cl.conn in
  if backlog > t.cfg.outbox_hard then `Evict
  else if backlog > t.cfg.outbox_soft then begin
    t.stats.soft_skips <- t.stats.soft_skips + 1;
    cl.strikes <- cl.strikes + 1;
    if cl.strikes >= stall_strikes then `Evict else `Skip
  end
  else begin
    cl.strikes <- 0;
    `Send
  end

(* Write one rekey's shared [frames] to every conn of [recips]: inline
   on the tick domain at domains = 1, else split over the lanes. After
   the join, [Conn.write_through] on this domain's loop flushes what a
   lane left behind a full socket and arms write interest for it, or
   for a dead peer, whose drop the loop's next dispatch makes. *)
let fan_out t frames recips =
  match t.lanes with
  | None ->
      List.iter
        (fun c ->
          Array.iter (Conn.enqueue_frame c) frames;
          ignore (Conn.write_through t.loop c))
        recips
  | Some lanes ->
      let recips = Array.of_list recips in
      Lanes.run lanes ~frames ~recips;
      Array.iter (fun c -> ignore (Conn.write_through t.loop c)) recips

let root_pointer =
  { Packet.seq = 0; block = 0; index_in_block = 0; payload = Packet.encode_payload [] }

let tick t =
  let module O = (val t.org : Organization.S) in
  let t0 = Loop.now t.loop in
  let tickets0 = t.stats.tickets_issued in
  t.tick_no <- t.tick_no + 1;
  (match O.rekey () with
  | None -> heartbeat t
  | Some msg ->
      (* The fresh members are sent their whole key path by unicast
         this tick, by RESYNC: the admitted joiners and the members
         the organization moved to a new leaf. [placements]
         persists until the next effective rekey, so a move is a leaf
         that differs from the last known one. A wrap only fresh
         members could open would cross the wire twice, so the
         generation carries only the entries some other member can
         use. *)
      let fresh = Hashtbl.create 8 in
      let add member =
        if O.is_member member && not (Hashtbl.mem fresh member) then
          Hashtbl.replace fresh member (member_path t member)
      in
      Hashtbl.iter (fun member _ -> add member) t.pending;
      List.iter
        (fun (member, leaf) ->
          match Hashtbl.find_opt t.placed member with
          | Some (l, _) when l = leaf -> ()
          | _ -> add member)
        (O.placements ());
      let wire_entries =
        Gkm_lkh.Rekey_msg.for_audience
          ~fresh:(Hashtbl.fold (fun _ path acc -> path :: acc) fresh [])
          msg.entries
      in
      let n_entries = List.length msg.entries and n_wire = List.length wire_entries in
      t.stats.wraps_pruned <- t.stats.wraps_pruned + n_entries - n_wire;
      let packets =
        Array.of_list (Packet.encode_entries ~capacity_bytes:t.cfg.capacity wire_entries)
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
         and the seal tracks the live DEK. The same packet stands in
         for a rekey whose every entry only fresh members could use
         (genesis, a mass migration), so framing does not depend on
         the audience. *)
      let dek_moved =
        match (t.seal, dek) with
        | Some s, Some (_, digest) -> not (Record.Epoch.same_digest (Record.Seal.epoch s) digest)
        | _ -> false
      in
      let packets =
        if Array.length packets = 0 && (n_entries > 0 || dek_moved) then [| root_pointer |]
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
        t.rekey_no <- t.rekey_no + 1
      end;
      (* Admit this interval's joiners: a RESYNC carries the full key
         path, the wire form of the registration unicast, and the
         member's first ticket. *)
      let admitted = Hashtbl.fold (fun m cl acc -> (m, cl) :: acc) t.pending [] in
      List.iter
        (fun (member, cl) ->
          if O.is_member member then begin
            Hashtbl.remove t.pending member;
            if Conn.closed cl.conn then Hashtbl.replace t.disconnected member t.rekey_no
            else send_resync t ~reason:`Admission ~path:(Hashtbl.find fresh member) cl member
          end)
        admitted;
      (* Members the organization moved to a new leaf (S->L migration)
         need their fresh key path: a server-initiated RESYNC, the wire
         form of the migration unicast. Newly admitted members already
         got theirs in their admission. *)
      List.iter
        (fun (member, leaf) ->
          match Hashtbl.find_opt t.placed member with
          | Some (l, _) when l = leaf -> ()
          | _ -> Hashtbl.replace t.placed member (leaf, t.epoch))
        (O.placements ());
      Hashtbl.iter
        (fun member path ->
          match Hashtbl.find_opt t.member_client member with
          | Some cl when cl.admitted_at < t.tick_no ->
              send_resync t ~reason:`Migration ~path cl member
          | _ -> ())
        fresh;
      if has_frames then begin
        (* Fan out under the pre-rekey generation, which every
           previously-admitted member holds. Every packet of the
           generation is sealed exactly once, in seq order, on this
           domain, here at its tick, and framed once into the SEALED
           frames kept in [history]: the ONE payload every path
           delivers. The UDP datagram is those frames back to back and
           the quiet-tick heartbeat repeats it; the TCP fan-out, the
           datagram's unicast fallback and a NACK's answer send them
           one by one. Either way a member opens identical bytes.
           Without a prior generation no member predates this rekey,
           none can NACK it, and nothing goes out. *)
        let total = Array.length packets in
        let frames =
          match t.seal with
          | None -> [||]
          | Some seal ->
              let epoch = Record.Epoch.label (Record.Seal.epoch seal) in
              let frames =
                Array.init total (fun seq ->
                    let rseq, ct =
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
                              }))
                    in
                    Frame.encode (Msg.Sealed { epoch; seq = rseq; ct }))
              in
              Hashtbl.replace t.history t.rekey_no frames;
              frames
        in
        Hashtbl.remove t.history (t.rekey_no - history_window);
        (* The UDP data plane: one datagram per generation, sent here
           on the tick domain, replacing the per-member unicast. A
           generation too large for one datagram falls back to TCP
           unicast for this interval, sending the same frames. *)
        let mcast_delivered =
          match t.mcast with
          | Some sender when Array.length frames > 0 && has_prior_member t ->
              let bytes = Array.fold_left (fun n f -> n + Bytes.length f) 0 frames in
              let fits = bytes <= max_dgram in
              if fits then begin
                let dgram = Bytes.concat Bytes.empty (Array.to_list frames) in
                mcast_send t sender dgram;
                t.last_dgram <- Some dgram;
                t.stats.mcast_datagrams <- t.stats.mcast_datagrams + 1
              end
              else t.stats.mcast_fallback_unicast <- t.stats.mcast_fallback_unicast + 1;
              journal "netd.mcast"
                (("rekey_no", Journal.Int t.rekey_no)
                :: ("records", Journal.Int total)
                :: ("fallback", Journal.Bool (not fits))
                :: (if fits then [ ("bytes", Journal.Int bytes) ] else []));
              fits
          | _ -> false
        in
        (* Heartbeats only ever repeat the latest generation's exact
           datagram: if this generation went out another way (unicast
           fallback, no member to serve) a stale repeat would be noise. *)
        t.quiet_ticks <- 0;
        (* A datagram that went out served every member: nothing goes
           over TCP this interval — not even backpressure accounting,
           since no outbox is growing with the group. *)
        if not mcast_delivered then begin
          t.last_dgram <- None;
          let slow = ref [] and recips = ref [] in
          Hashtbl.iter
            (fun _member cl ->
              if cl.admitted_at < t.tick_no then
                match backpressure t cl with
                | `Evict -> slow := cl :: !slow
                | `Skip -> ()
                | `Send -> recips := cl.conn :: !recips)
            t.member_client;
          if !recips <> [] then fan_out t frames !recips;
          List.iter (fun cl -> evict_slow t cl) !slow
        end;
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
         frameless tick here implies the DEK did not move. A DEK's one
         Seal object — and its CTR sequence — outlives its tenure for
         as long as the DEK can return ([seal_for], [retire_seals]);
         same-DEK rolls and returns only relabel, which keeps the
         (key, nonce) stream collision-free. *)
      (match dek with
      | None -> t.seal <- None
      | Some (dek, digest) when has_frames || t.seal = None ->
          (* [t.seal = None] with a live DEK is the genesis corner: the
             very first admission lands on a frameless tick (a sole
             join produces no entries), yet that member now predates
             the next rekey — without a generation minted for the DEK
             it holds, the next fan-out would have nothing to seal
             under and the member could only NACK its way back in. *)
          t.seal <- Some (seal_for t ~dek ~digest ~label:msg.epoch)
      | Some _ -> ());
      retire_seals t;
      prune_nodes t;
      (* The rekey's journal record comes last, so it can carry the
         tick's cost and the tickets it issued. *)
      if has_frames && Obs.enabled () then begin
        let dt = Loop.now t.loop -. t0 in
        journal "netd.rekey"
          [
            ("rekey_no", Int t.rekey_no);
            ("epoch", Int t.epoch);
            ("packets", Int (Array.length packets));
            ("entries", Int n_entries);
            ("wire_entries", Int n_wire);
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
      Hashtbl.remove t.placed m)
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
  if cfg.capacity < Packet.min_capacity_bytes then
    invalid_arg
      (Printf.sprintf
         "Netd.Server: capacity %d below the %d bytes a one-wrap entry group may need"
         cfg.capacity Packet.min_capacity_bytes);
  if cfg.outbox_soft > cfg.outbox_hard then
    invalid_arg "Netd.Server: outbox_soft must not exceed outbox_hard";
  if cfg.domains < 1 || cfg.domains > 64 then
    invalid_arg "Netd.Server: domains must be in [1, 64]";
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
        | Udp group -> (
            match Mcast.create_sender group with
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
        pending = Hashtbl.create 64;
        disconnected = Hashtbl.create 64;
        leaving = Hashtbl.create 64;
        placed = Hashtbl.create 256;
        history = Hashtbl.create 16;
        ticket_sealer = Record.Ticket.Sealer.create ~seed:cfg.ticket_seed;
        node_changed = Hashtbl.create 1024;
        prune_at = 256;
        mcast;
        (* Lanes exist only from domains = 2 up: at 1 the tick domain
           writes the fan-out inline. *)
        lanes = (if cfg.domains >= 2 then Some (Lanes.create cfg.domains) else None);
        seal = None;
        seals = Hashtbl.create 16;
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
            nack_frames = 0;
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
            wraps_pruned = 0;
          };
        stopped = false;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  Loop.add_fd loop listen_fd ~readable:(accept_loop t) ~writable:ignore;
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
    Option.iter Lanes.stop t.lanes
  end

module Private = struct
  let epoch = epoch
  let organization = organization
  let bound_members = bound_members
  let node_rows = node_rows
end
