(** A non-blocking framed connection: socket + streaming frame decoder
    on the read side, a bounded queue of encoded frames on the write
    side.

    Outgoing frames are byte buffers, not messages, so a rekey fan-out
    encodes each frame once and every recipient's outbox shares the
    same buffer (per-connection state is just a write offset). The
    queue itself is unbounded here — backpressure policy (soft skip,
    hard evict) belongs to the server, which watches {!out_bytes}.

    Output is write-through: whoever queues a frame writes it at once
    with {!write_through}, which leaves the loop's write interest
    armed only while bytes remain queued. There is no [want_write]
    predicate for the loop to poll.

    Threading: the write side ({!enqueue_frame}, {!flush},
    {!write_through}, {!out_bytes}, {!shutdown}, {!close_fd}) is
    serialized by an internal mutex, so a tick domain may enqueue
    unicast replies while the shard domain that owns the fd flushes;
    the tick domain then tells the shard to flush that entry
    ({!Shard.flush}) rather than writing itself. The read side
    ({!on_readable}) is single-owner: exactly one domain polls and
    reads a given connection at any time, and ownership handoff must
    happen through a synchronizing channel. *)

type t

val create : ?max_frame:int -> Unix.file_descr -> t
(** Takes ownership of [fd] and switches it to non-blocking mode. *)

val fd : t -> Unix.file_descr

val enqueue_frame : t -> bytes -> unit
(** Enqueue an already-encoded frame; the buffer may be shared with
    other connections and must not be mutated afterwards. *)

val flush : ?farewell:bool -> t -> [ `Ok | `Eof ]
(** Write queued bytes until the socket would block or the queue is
    empty. [`Eof] means the peer is gone (reset / broken pipe).
    [~farewell:true] flushes even after {!shutdown} (never after
    {!close_fd}) — the one-shot delivery of a final error frame by
    the shard that owns the fd. *)

val on_readable :
  t ->
  [ `Msgs of Gkm_wire.Msg.t list
  | `Eof of Gkm_wire.Msg.t list
  | `Error of string * Gkm_wire.Msg.t list ]
(** Drain the socket and decode. Complete messages are returned in
    arrival order even when the read also hit end-of-stream ([`Eof])
    or the decoder went corrupt ([`Error], sticky — drop the
    connection). *)

val write_through : Loop.t -> t -> [ `Ok | `Eof ]
(** {!flush}, then arm write interest for the fd on [loop] exactly
    while output is left queued (or the peer is gone, so the owner's
    [writable] handler sees the [`Eof] on the loop's next dispatch).
    Call it after every enqueue and from the [writable] handler. Only
    the domain that owns [loop] and polls the fd may call it. *)

val out_bytes : t -> int
(** Bytes queued but not yet written. *)

val close : t -> unit
(** [shutdown] then {!close_fd} (idempotent). Deregistering from the
    loop is the owner's job. *)

val shutdown : t -> unit
(** Mark the connection dead — further enqueues and ordinary flushes
    become no-ops — WITHOUT closing the fd. Used by a sharded server
    to stop traffic while the owning shard detaches; closing the fd
    before the shard stops polling it would let the kernel reuse the
    descriptor under the shard's feet. Pending output is retained
    until {!close_fd} so the shard can still deliver a farewell via
    [flush ~farewell:true]. *)

val close_fd : t -> unit
(** Actually [close(2)] the fd (idempotent). Only safe once no other
    domain will touch the descriptor again. *)

val closed : t -> bool

(** Transfer counters (always on; the [wire.*] metrics mirror them when
    observability is enabled). *)

val bytes_rx : t -> int
val bytes_tx : t -> int
