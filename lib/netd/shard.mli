(** Domain-sharded outbox flushers for the REKEY fan-out.

    A pool spawns K OCaml domains, each running its own epoll
    {!Loop} over a disjoint, stable set of member connections. The tick domain
    (organization + protocol logic) never performs I/O on an attached
    fd again: it hands encode-once frame buffers to the shards
    ([fanout]) and receives decoded inbound traffic, strike-outs and
    detach acknowledgements back through a single event queue drained
    behind {!event_fd}.

    Ownership protocol for a connection:
    + the tick domain removes the fd from its loop, then calls
      {!attach} — the mutex-guarded command queue is the
      happens-before edge handing the read side to the shard;
    + the shard watches the fd for reads, forwarding decoded messages
      as [Msgs] events, and writes through: a fan-out writes each
      outbox as it fills it, and write interest is armed only while
      bytes are stuck behind a full socket. The tick domain may still
      enqueue unicast frames (the conn write side is mutex-guarded)
      but never writes a shard-owned fd: it sends {!flush} naming the
      entry, and the shard writes exactly that outbox;
    + to drop the connection the tick domain calls [Conn.shutdown]
      (not [close]!) and then {!detach}; the shard deregisters the
      fd and answers with [Detached], after which — and only after
      which — the fd may actually be closed. Closing earlier would let
      the kernel reuse the descriptor number while the shard still
      watches it.

    Backpressure lives shard-side: each [fanout] applies the soft-skip
    / hard-evict tiers and stall-strike accounting against the live
    outbox depth, reporting evictions as [Dead] events and counting
    skips and transmitted bytes into per-shard atomics aggregated
    lock-free by {!soft_skips} and {!tx_per_domain}. *)

type t

type entry
(** A shard-owned member connection. *)

type dead_reason =
  | Io  (** peer gone: EOF, reset, broken pipe *)
  | Slow  (** struck out by the backpressure tiers *)

type event =
  | Msgs of entry * Gkm_wire.Msg.t list
      (** Inbound frames decoded by the shard, in arrival order, for
          the tick domain's protocol logic. *)
  | Dead of entry * dead_reason
      (** The shard deregistered the fd and will never touch it again;
          the tick domain should drop (and for [Slow], evict) the
          client, which includes the {!detach} handshake. *)
  | Detached of entry
      (** Final event for an entry — the answer to {!detach}. The fd
          may now be closed. *)

val create : domains:int -> outbox_soft:int -> outbox_hard:int -> stall_strikes:int -> t
(** Spawn [domains] shard domains ([>= 1]). *)

val domains : t -> int

val entry_fd : entry -> int
(** Raw fd of the underlying connection — the tick domain's client
    table key. Events carry entries, not fds, so a recycled descriptor
    number can never misattribute a stale event; compare
    [entry_conn e == cl.conn] before acting. *)

val entry_conn : entry -> Conn.t
val entry_shard : entry -> int

val attach : t -> shard:int -> conn:Conn.t -> entry
(** Hand [conn] to a shard. The caller must already have removed the
    fd from its own loop; output it left queued is written on
    arrival. *)

val detach : ?farewell:bool -> t -> entry -> unit
(** Ask the owning shard to stop watching the entry's fd. Idempotent
    with respect to shard-initiated death: a [Detached] answer always
    comes, even if a [Dead] event is already in flight.
    [~farewell:true] makes the shard attempt one best-effort flush of
    the conn's pending output before letting go — used to deliver a
    final error frame enqueued just before [Conn.shutdown], matching
    the farewell a single-domain server writes. *)

val fanout : t -> shard:int -> frames:bytes array -> recips:entry array -> unit
(** Hand one rekey's encode-once frame buffers to a shard. [frames]
    are immutable and shared across all shards and recipients; each
    recipient gets all of them, subject to the backpressure tiers. *)

val backpressure :
  outbox_soft:int ->
  outbox_hard:int ->
  stall_strikes:int ->
  on_skip:(unit -> unit) ->
  backlog:int ->
  int ->
  [ `Send | `Skip | `Evict ] * int
(** The one fan-out backpressure policy, used by {!fanout} and by a
    single-domain server's inline fan-out. Given a recipient's outbox
    [backlog] in bytes and its strike count, returns the verdict and
    the new strike count: send at or below [outbox_soft] (strikes
    reset); above it skip this rekey (one strike, counted by
    [on_skip] and [netd.soft_skips]); evict above [outbox_hard] or on
    the [stall_strikes]-th consecutive skip. *)

val flush : t -> entry -> unit
(** Ask the owning shard to write out frames the tick domain enqueued
    on the entry's conn outside a fan-out (unicast replies). Commands
    are FIFO per shard, so the frames go out in the order queued. *)

val event_fd : t -> Unix.file_descr
(** Register this in the tick domain's loop; when readable, call
    {!on_event_readable} then {!poll_events}. *)

val on_event_readable : t -> unit
(** Drain the doorbell (clears the coalescing flag). *)

val poll_events : t -> event list
(** Take all pending events, in emission order per shard. *)

val tx_per_domain : t -> int array
(** Bytes written by each shard domain, for the shard-imbalance view
    in serve stats. *)

val soft_skips : t -> int
(** Total soft-skipped fan-outs across shards. *)

val stop : t -> unit
(** Stop and join every shard domain, then close the doorbells. All
    entries should have been detached first (drop every client before
    stopping); pending commands are still processed, so in-flight
    [Detach]s are answered — drain {!poll_events} after [stop] to
    observe them. *)
