(** The rekey server: a real {!Gkm.Organization} behind a TCP loopback
    socket, driven by a {!Loop}.

    The server accepts framed connections ({!Conn}), whose first frame
    is the request itself, batch-admits JOINs at the interval tick (a
    RESYNC carries the member's full key path — the wire form of the
    registration unicast), fans every rekey out as a run of
    sealed REKEY records whose SEALED frames are encoded once and
    shared across all outboxes (the records carry only the entries
    that a member not sent its whole path by unicast that tick can
    use: {!Gkm_lkh.Rekey_msg.for_audience}), answers NACKs from a
    retransmission history of the last 8 rekeys (out-of-window NACKs
    get a full RESYNC instead), and authenticates reconnecting members
    with {!Gkm_wire.Frame.resync_auth}.

    Backpressure has two tiers, both measured on the outbox byte
    backlog at fan-out time: beyond [outbox_soft] the client is
    skipped for the interval (it recovers the rekey_no gap via
    NACK/RESYNC); beyond [outbox_hard], or on its eighth skip in a
    row, it is evicted — departed from the organization and
    disconnected. A member whose connection
    merely drops keeps its membership for [resync_grace] rekeys, then
    departs.

    The server speaks one wire version ({!Gkm_wire.Msg.version}); a
    frame whose header says another version is answered with
    [err_version], and then the connection closes. Every
    REKEY is sealed once, by the {!Gkm_record.Record} layer under the
    pre-rekey DEK generation, and a NACK's answer resends its fan-out's
    SEALED frames byte for byte. Members receive an AEAD resumption
    ticket (inside the admitting RESYNC, and every recovery RESYNC)
    that names them and never goes stale, and a reconnecting member
    can re-enter in one round trip by presenting it in REJOIN —
    receiving, while its leaf has not moved since the epoch it still
    holds, only the path keys that changed since then, else its whole
    path, sealed under a key derived from its individual key. The
    replies to one read's messages leave in one write. Evicted members are
    locked out: their ids are never reused and their tickets die with
    the membership (soft error; the socket may re-JOIN as a fresh
    member). Every organization's entries, composed organizations'
    banded node ids beyond i32 included, travel in the one varint
    {!Gkm_transport.Packet} entry codec (DESIGN.md Sections 12-13).

    With the {!Udp} transport the sealed REKEY fan-out moves to a UDP
    multicast data plane: each generation goes out as ONE datagram on
    the group, the very SEALED frames the TCP path would have written,
    back to back (sealed and framed once on the tick domain; see
    {!Gkm_wire.Frame.decode_datagram}), while TCP remains the unicast
    control channel (JOIN/NACK/RESYNC/REJOIN/tickets). A
    generation whose frames exceed one datagram (60,000 B) falls back
    to TCP unicast for that interval. The server
    injects no faults: datagram loss, reordering and duplication are
    applied per receiver, by each client's [mcast_fault] shim
    (DESIGN.md Section 17).

    Threading: one domain, the one that runs the server's {!Loop},
    owns every connection and runs all organization and protocol
    logic. With [config.domains >= 2] it also keeps [domains] fan-out
    lanes, which touch member connections only while it waits for them
    inside a tick; no fd ever leaves its loop. *)

type transport =
  | Tcp  (** rekeys unicast over every member connection (default) *)
  | Udp of Mcast.group
      (** sealed rekey generations multicast to the group; a generation
          whose datagram would pass 60,000 bytes (inside the 64 KiB UDP
          payload ceiling) falls back to TCP unicast *)

val udp : Mcast.group -> transport

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  org : Gkm.Organization.spec;
  tp : float;  (** rekey interval, seconds *)
  capacity : int;
      (** packet payload capacity, bytes; at least
          {!Gkm_transport.Packet.min_capacity_bytes} *)
  outbox_soft : int;  (** backlog (bytes) beyond which an interval is skipped *)
  outbox_hard : int;  (** backlog (bytes) beyond which the client is evicted *)
  resync_grace : int;  (** rekeys a disconnected member stays registered *)
  resync_budget : int;
      (** recovery resyncs served per connection binding before the
          client is dropped with a protocol error (default 64). Each
          recovery resync unicasts a full key path, so an unbounded
          grant would let a NACK flood amplify a few bytes into
          arbitrary transmit work; the counter resets with the
          connection, so honest reconnects are never locked out. *)
  max_clients : int;
  sndbuf : int option;
      (** SO_SNDBUF for accepted sockets — small values let tests fill
          the kernel buffer and exercise the backpressure tiers *)
  ticket_seed : int;  (** seed for the server-local ticket sealing key *)
  domains : int;
      (** REKEY fan-out writers, in [1, 64]. 1 (the default) is the
          single-threaded server: the tick domain writes the fan-out
          inline. From 2 up, [domains] worker domains (lanes) run
          beside the tick domain: once the tick domain has sealed a
          rekey's frames and decided backpressure, each lane writes
          the shared frames to one contiguous slice of the recipients
          while the tick domain waits (DESIGN.md Section 14). *)
  transport : transport;
      (** {!Tcp} (default) or {!Udp}: where sealed rekey generations
          travel. Control traffic is TCP in both modes. *)
}

val default_config : config
(** TT scheme, 127.0.0.1:7600, 1 s interval, 1 KiB packets. *)

type stats = {
  mutable accepts : int;
  mutable joins : int;  (** JOINs registered; the next tick admits each by RESYNC *)
  mutable leaves : int;
  mutable rekeys : int;
  mutable rekey_packets : int;
  mutable nacks : int;
  mutable nack_frames : int;  (** fan-out frames resent in answer to NACKs *)
  mutable resyncs : int;
      (** recovery resyncs only: authenticated RESYNC_REQ answers and
          NACKs that fell out of the history window — NOT admissions
          or the server-initiated migration unicasts (see
          {!field-migrations}) *)
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
  mutable ticket_rejects : int;  (** REJOINs refused (unopenable ticket, or evicted) *)
  mutable mcast_datagrams : int;
      (** rekey generations multicast, one datagram each *)
  mutable mcast_bytes : int;
      (** payload bytes multicast: those datagrams and the heartbeats *)
  mutable mcast_fallback_unicast : int;
      (** rekey generations too large for one datagram, delivered
          over TCP unicast instead *)
  mutable mcast_heartbeats : int;
      (** quiet-tick re-multicasts of the latest generation's datagram
          (power-of-two backoff since the last framed rekey) — the
          recovery path for a datagram lost off the tail of a quiet
          period, which gap-based NACK recovery cannot see *)
  mutable wraps_pruned : int;
      (** rekey entries left out of the fan-out because only members
          sent their whole path by unicast that tick (an admitting or
          migration RESYNC) could use them *)
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
val org_size : t -> int

val stats : t -> stats
(** The live record, at every [domains]: its fields move as the
    server runs. *)

val bytes_tx : t -> int
(** Total bytes written to clients, live and closed. *)

val bytes_rx : t -> int

val tx_per_domain : t -> int array
(** Transmitted bytes by writer domain: index 0 the tick domain
    (unicast replies, multicast, and fan-out bytes a lane left queued),
    1..K the fan-out lanes — the lane-imbalance view. A single cell
    when [domains = 1]. *)

val dek_trace : t -> (int * string) list
(** [(rekey_no, DEK fingerprint)] per produced rekey, oldest first —
    the ground truth the end-to-end tests diff client traces against. *)

module Private : sig
  (** Server state the tests assert on; no shipped path reads it. *)

  val epoch : t -> int

  val organization : t -> Gkm.Organization.packed
  (** The served organization, for inspection. Mutating it behind the
      server's back breaks every invariant above. *)

  val bound_members : t -> int list
  (** Every member bound to an open connection. *)

  val node_rows : t -> int
  (** Rows of per-node bookkeeping (the epoch of each node's last key
      change). Dead nodes are pruned, so this stays within a constant
      factor of the live tree size rather than growing with every node
      ever created. *)
end
