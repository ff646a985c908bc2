(** The rekey server: a real {!Gkm.Organization} behind a TCP loopback
    socket, driven by a {!Loop}.

    The server accepts framed connections ({!Conn}), walks each
    through the HELLO handshake, batch-admits JOINs at the interval
    tick (JOIN_ACK carries the member's full key path — the wire form
    of the registration unicast), fans every rekey out as a run of
    sealed REKEY records whose SEALED frames are encoded once and
    shared across all outboxes,
    answers NACKs from a bounded retransmission history (out-of-window
    NACKs get a full RESYNC instead), and authenticates reconnecting
    members with {!Gkm_wire.Frame.resync_auth}.

    Backpressure has two tiers, both measured on the outbox byte
    backlog at fan-out time: beyond [outbox_soft] the client is
    skipped for the interval (it recovers the rekey_no gap via
    NACK/RESYNC); beyond [outbox_hard] it is evicted — departed from
    the organization and disconnected. A member whose connection
    merely drops keeps its membership for [resync_grace] rekeys, then
    departs.

    The server speaks one wire version ({!Gkm_wire.Msg.version}); a
    HELLO whose range excludes it is refused with [err_version]. Every
    REKEY/RETX goes out sealed by the {!Gkm_record.Record} layer under
    the pre-rekey DEK generation, members receive AEAD resumption
    tickets (at
    admission, at RESYNC, whenever their entitled path changes shape,
    and every [ticket_rewrap] epochs), and a reconnecting member can
    re-enter in one round trip by presenting its ticket in REJOIN —
    receiving only the path keys that changed since it left, sealed
    under a key derived from its individual key. Evicted members are
    locked out: their ids are never reused and their tickets die with
    the membership (soft error; the socket may re-JOIN as a fresh
    member). Composed organizations — whose band node ids exceed the
    i32 range of the narrow {!Gkm_transport.Packet} entry codec — get
    their packets in the wide codec (DESIGN.md Sections 12-13).

    With the {!Udp} transport the sealed REKEY fan-out moves to a UDP
    multicast data plane: each generation's sealed records go out as
    ONE {!Gkm_wire.Dgram} datagram on the group — sealed once on the
    tick domain, so the record bytes are identical to what the TCP
    path would have delivered — while TCP remains the unicast control
    channel (HELLO/JOIN/NACK/RESYNC/REJOIN/tickets). A generation too
    large for one
    datagram falls back to TCP unicast for that interval. The send
    path takes an injectable {!Gkm_net.Netem} fault configuration, so
    loss/reorder/duplication hit the live socket (DESIGN.md
    Section 17). *)

type transport =
  | Tcp  (** rekeys unicast over every member connection (default) *)
  | Udp of { group : Mcast.group; fault : Gkm_net.Netem.cfg; max_dgram : int }
      (** sealed rekey generations multicast to [group]; [fault] is
          applied to outgoing datagrams ({!Gkm_net.Netem.none} for a
          clean lane); generations over [max_dgram] bytes fall back
          to TCP unicast *)

val udp : ?fault:Gkm_net.Netem.cfg -> ?max_dgram:int -> Mcast.group -> transport
(** [max_dgram] defaults to 60000 — inside the 64 KiB UDP payload
    ceiling with headroom. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  org : Gkm.Organization.spec;
  tp : float;  (** rekey interval, seconds *)
  capacity : int;  (** packet payload capacity, bytes *)
  max_frame : int;
  outbox_soft : int;  (** backlog (bytes) beyond which an interval is skipped *)
  outbox_hard : int;  (** backlog (bytes) beyond which the client is evicted *)
  retx_window : int;  (** rekeys kept for retransmission *)
  resync_grace : int;  (** rekeys a disconnected member stays registered *)
  resync_budget : int;
      (** recovery resyncs served per connection binding before the
          client is dropped with a protocol error (default 64). Each
          recovery resync unicasts a full key path, so an unbounded
          grant would let a NACK flood amplify a few bytes into
          arbitrary transmit work; the counter resets with the
          connection, so honest reconnects are never locked out. *)
  stall_strikes : int;
      (** consecutive soft-skipped intervals before a stuck client is
          evicted (skipping halts backlog growth, so the hard mark
          alone cannot catch a permanently stalled reader) *)
  max_clients : int;
  sndbuf : int option;
      (** SO_SNDBUF for accepted sockets — small values let tests fill
          the kernel buffer and exercise the backpressure tiers *)
  ticket_horizon : int;
      (** max epochs between a ticket's issue and its presentation in
          REJOIN before the server refuses it (soft err_ticket) *)
  ticket_rewrap : int;
      (** epochs between age-based ticket reissues to connected
          members; keeps every live ticket well inside the horizon *)
  ticket_seed : int;  (** seed for the server-local ticket sealing key *)
  domains : int;
      (** REKEY fan-out lanes. 1 (the default) is the single-threaded
          server: fan-out, flushing and backpressure run inline on the
          tick domain, exactly the historical code path. From 2 up,
          [domains] shard domains are spawned; each owns a disjoint,
          stable set of member fds, flushes encode-once frame buffers
          into them, and applies the backpressure tiers shard-side
          (DESIGN.md Section 14). Organization and protocol logic stay
          on the tick domain either way. *)
  transport : transport;
      (** {!Tcp} (default) or {!Udp}: where sealed rekey generations
          travel. Control traffic is TCP in both modes. *)
}

val default_config : config
(** TT scheme, 127.0.0.1:7600, 1 s interval, 1 KiB packets. *)

type stats = {
  mutable accepts : int;
  mutable joins : int;
  mutable leaves : int;
  mutable rekeys : int;
  mutable rekey_packets : int;
  mutable nacks : int;
  mutable retx_packets : int;
  mutable resyncs : int;
      (** recovery resyncs only: authenticated RESYNC_REQ answers and
          NACKs that fell out of the retransmission window — NOT the
          server-initiated migration unicasts (see {!field-migrations}) *)
  mutable resyncs_denied : int;
      (** recovery resyncs refused because a connection exhausted
          [config.resync_budget]; each costs the offender its
          connection *)
  mutable migrations : int;
      (** S->L placement-move unicasts (server-initiated RESYNC with a
          fresh path); routine under the TT scheme, not a failure *)
  mutable soft_skips : int;
  mutable evictions_slow : int;
  mutable evictions_grace : int;
  mutable protocol_errors : int;
  mutable bytes_tx_closed : int;
  mutable bytes_rx_closed : int;
  mutable tickets_issued : int;
  mutable ticket_bytes : int;  (** total bytes of issued ticket blobs *)
  mutable rejoins_0rtt : int;  (** REJOINs answered with delta keys only *)
  mutable rejoins_full : int;  (** REJOINs answered with the full path *)
  mutable ticket_rejects : int;  (** REJOINs refused (bad/expired/evicted) *)
  mutable mcast_datagrams : int;
      (** datagrams actually put on the multicast socket (after any
          injected drop, counting injected duplicates) *)
  mutable mcast_bytes : int;  (** payload bytes of those datagrams *)
  mutable mcast_fallback_unicast : int;
      (** rekey generations that exceeded [max_dgram] and were
          delivered over TCP unicast instead *)
  mutable mcast_heartbeats : int;
      (** quiet-tick re-multicasts of the latest generation's datagram
          (power-of-two backoff since the last framed rekey) — the
          recovery path for a datagram lost off the tail of a quiet
          period, which gap-based NACK recovery cannot see *)
}

type t

val create : loop:Loop.t -> config -> t
(** Bind, listen, register with the loop and arm the interval timer.
    @raise Invalid_argument on a nonsense configuration;
    @raise Unix.Unix_error if the address is taken. *)

val stop : t -> unit
(** Close the listener and every connection; disarm the timer. *)

val tick_now : t -> unit
(** Run one rekey interval immediately (tests; the armed timer keeps
    its own schedule). *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val rekey_no : t -> int
val epoch : t -> int
val n_clients : t -> int
val org_size : t -> int

val stats : t -> stats
(** With [domains >= 2] this is a copy with the per-shard atomics
    (soft skips) folded in — read fields immediately rather than
    caching the record. With [domains = 1] it is the live record. *)

val domains : t -> int

val bytes_tx : t -> int
(** Total bytes written to clients, live and closed. *)

val bytes_rx : t -> int

val tx_per_domain : t -> int array
(** Transmitted bytes by writer domain: index 0 the tick domain
    (handshakes and pre-admission traffic), 1..K the shard flushers —
    the shard-imbalance view. A single cell when [domains = 1]. *)

val dek_trace : t -> (int * string) list
(** [(rekey_no, DEK fingerprint)] per produced rekey, oldest first —
    the ground truth the end-to-end tests diff client traces against. *)

val organization : t -> Gkm.Organization.packed
(** The served organization, for inspection. Mutating it behind the
    server's back breaks every invariant above. *)

val bound_tickets : t -> (int * (int * bytes) option) list
(** [(member, Some (issued_epoch, path_digest))] of the newest ticket
    of every member bound to an open connection ([None]: no ticket) —
    what a staleness audit checks against the current paths. *)

val node_rows : t -> int
(** Rows of per-node bookkeeping (last key change and parent per
    node). Dead nodes are pruned, so this stays within a constant
    factor of the live tree size rather than growing with every node
    ever created. *)

val tick_time : t -> rekey_no:int -> float option
(** Wall-clock time at which the given rekey's tick started (kept for
    a bounded window) — the latency baseline for the load generator. *)
