(** The client runtime: joins a {!Server} over the wire, maintains a
    {!Gkm_lkh.Member} key state, and recovers losses.

    Rekey frames are reassembled per interval; because rekey entries
    arrive deepest-first (dependency order), the contiguous packet
    prefix is always safe to process immediately. Gaps are NACKed once
    evidence shows the run moved past them (a later seq, or a later
    rekey); wholly-missed rekey numbers — the server's soft
    backpressure skips an interval — are NACKed as a whole. When too
    many intervals pile up incomplete, or after {!kill}/{!reconnect},
    the client falls back to the authenticated RESYNC handshake and
    reinstalls its full key path.

    An optional {!Gkm_net.Loss_model} simulates receive loss on REKEY
    records until their rekey is NACKed (never on the NACK's answer),
    so the recovery machinery is genuinely exercised over loopback
    TCP. The simulated drop applies to the {e inner} REKEY after the
    record layer opens the sealed frame and before its replay window
    marks the record, so a later copy of a dropped record (the NACK's
    answer, the UDP quiet-tick heartbeat) opens as if it were the
    first. For the same reason a client awaiting its RESYNC reply
    discards sealed records unopened: the window marks only the
    records the member keeps.

    Rekeys arrive as epoch-sealed records
    ({!Gkm_record.Record}); the client keeps a replay-protected sink
    on its current DEK generation, buffers frames sealed for a
    generation it hasn't reached (draining them after the rotation
    they announce). It opens a record by range: one MAC over the
    whole record ({!Gkm_record.Record.Sink.peek}), then it decrypts
    the REKEY fields ({!Gkm_wire.Msg.decode_inner_head}) and keeps
    the verified record in the reassembly; when the packet's turn
    comes it decrypts the payload's metadata, asks
    {!Gkm_lkh.Member.interested} of each entry in order, and decrypts
    the check and block of only the entries it hands to
    {!Gkm_lkh.Member.process_entry}. The client also holds the AEAD
    resumption ticket the server issues (inside the admitting RESYNC,
    or a recovery one). A connection's first frame is its request:
    JOIN for a new member; after {!kill}/{!reconnect}, the ticket in a
    REJOIN — one round trip to full membership, delta keys only if the
    member state survived — or, without a ticket, an authenticated
    RESYNC_REQ. The fallback ladder on rejection:
    RESYNC (a ticket the server cannot open), fresh JOIN as a new
    member (evicted). *)

type config = {
  host : string;
  port : int;
  cls : Gkm_wire.Msg.cls;
  loss : float;  (** loss rate reported at join (placement signal) *)
  drop : Gkm_net.Loss_model.t option;
      (** simulated receive loss, applied to REKEY records whose rekey
          is not yet NACKed *)
  seed : int;  (** PRNG seed for the drop model *)
  resume : bytes option;
      (** a blob from {!export_resumption}: start as that member and
          rejoin by ticket instead of joining fresh *)
  mcast : Mcast.group option;
      (** subscribe to this multicast group and accept sealed rekey
          datagrams from it (the server's {!Server.Udp} data plane);
          TCP remains the control channel and the NACK/RESYNC recovery
          path. [None] (the default) is pure-TCP. *)
  mcast_fault : Gkm_net.Netem.cfg;
      (** receive-side fault shim applied to datagrams as they come
          off the group socket — loss/reorder/duplication injection
          local to this client ({!Gkm_net.Netem.none} by default) *)
}

val config : port:int -> config
(** Loopback defaults: long-duration class, no simulated loss. *)

type phase =
  | Connecting
  | Rejoin_wait  (** REJOIN sent, awaiting the sealed ack *)
  | Joining  (** JOIN sent, awaiting the admitting tick's RESYNC *)
  | Resync_wait
  | Member
  | Leaving
  | Closed
type t

val connect : loop:Loop.t -> config -> t
(** Open a non-blocking connection and send JOIN (or the [resume]
    blob's REJOIN) as its first frame; progress happens as the loop
    runs. *)

val kill : t -> unit
(** Drop the connection abruptly (no LEAVE) — simulates a crash. The
    member identity, individual key and epoch survive for
    {!reconnect}. *)

val drain : ?timeout:float -> t -> (unit -> unit) -> unit
(** Receive barrier: send a PING and call the continuation once the
    matching PONG arrives. The server answers PING at any phase and
    its per-connection write queue is FIFO, so the PONG proves every
    frame the server enqueued for this client before processing the
    PING has been received. The
    continuation fires exactly once: on the PONG, on connection
    teardown, or after [timeout] seconds (default 5), whichever comes
    first. *)

val reconnect : t -> unit
(** Open a fresh connection. Holding a ticket, the client's first
    frame is REJOIN (0-RTT, see {!phase} [Rejoin_wait]); otherwise it
    is a RESYNC_REQ authenticated with {!Gkm_wire.Frame.resync_auth},
    and the client resumes via RESYNC. *)

val export_resumption : t -> bytes option
(** The member's portable resumption state — id, epoch, individual
    key and current ticket — for a later process to rejoin with (the
    [resume] config field, or [gkm join --ticket]). [None] before
    admission or without a ticket. Contains the secret individual
    key: for the member's own keeping, not for the wire. *)

val leave : t -> unit
(** Send LEAVE and close once the outbox drains. *)

val on_dek : t -> (rekey_no:int -> fp:string -> unit) -> unit
(** Called at every DEK change (join, each completed rekey, resync)
    with the new group-key fingerprint. *)

val on_sealed : t -> (epoch:int -> seq:int64 -> ct:bytes -> unit) -> unit
(** Called for every SEALED record as it arrives off the wire while a
    member or awaiting a RESYNC reply, before any open/replay handling, with the raw epoch label,
    record sequence and ciphertext — the byte-level delivery trace the
    fan-out identity test diffs across domain counts. *)

val phase : t -> phase
val is_member : t -> bool
val member : t -> int
(** Member id; [-1] before the admitting RESYNC. *)

val last_rekey : t -> int
val group_key : t -> Gkm_crypto.Key.t option

val dek_trace : t -> (int * string) list
(** [(rekey_no, DEK fingerprint)] observed, oldest first — diffable
    against {!Server.dek_trace}. *)

val last_error : t -> string option
val nacks_sent : t -> int
val resyncs : t -> int
(** RESYNC_REQs sent (reconnection or recovery). *)

val rejoins : t -> int
(** Successful ticket rejoins (delta or full). *)

val replays_dropped : t -> int
(** Sealed frames rejected by the replay window. *)

val auth_dropped : t -> int
(** Sealed frames (and rejoin acks) whose authentication failed and
    that were not merely ahead of our generation, and datagram records
    labelled behind it (stale copies, never opened). *)

val mcast_datagrams_rx : t -> int
(** Multicast datagrams received and decoded off the group socket
    (after the receive-side fault shim, if any). *)

val rekeys_completed : t -> int

module Private : sig
  (** Client state the tests assert on; no shipped path reads it. *)

  val epoch : t -> int

  val key_of : t -> int -> Gkm_crypto.Key.t option
  (** The key the member state holds for a node id; [None] without
      member state or for a node it does not hold. *)

  val frames_dropped : t -> int

  val blocks_decrypted : t -> int
  (** Counter blocks decrypted of the REKEY records whose payloads the
      member state consumed: each record's tag and rekey fields, its
      payload's metadata, and the key material of the entries the
      member selected. *)

  val blocks_held : t -> int
  (** Counter blocks those same records held in all. *)

  val pending_discarded : t -> int
  (** Sealed frames discarded unopened: those that arrived while a
      RESYNC reply was awaited, and those buffered for a generation
      ahead of ours when a rejoin, resync or fresh join reinstalled
      the member state. *)

  val request_resync : t -> unit
  (** Send an authenticated RESYNC_REQ now and await the reply, as the
      client does when its recovery gives up. *)

  val deliver : t -> Gkm_wire.Msg.t -> unit
  (** Handle a message as if it had just arrived on the connection. *)

  val mcast_duplicates : t -> int
  (** Datagrams the receive-side fault shim ([mcast_fault]) duplicated. *)

  val mcast_decode_errors : t -> int
  (** Datagrams that failed {!Gkm_wire.Frame.decode_datagram} — stray
      or forged traffic on the group, or injected corruption; never
      fatal. A datagram holding any message but [Sealed] counts here
      whole. *)
end
