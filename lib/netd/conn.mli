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
    predicate for the loop to poll. A caller that queues several
    frames before writing (a protocol flight) sends them with one
    gathered [writev(2)], straight from the frame buffers.

    Threading: a connection has one owner, the domain whose {!Loop}
    polls its fd; only the owner reads, writes or closes it. A server's
    fan-out lane may enqueue and {!flush} a conn only while that owner
    is blocked waiting for the lane to finish, so no two domains ever
    touch it at once, and the conn needs no lock. *)

type t

val create : Unix.file_descr -> t
(** Takes ownership of [fd] and switches it to non-blocking mode. Its
    frame decoder refuses a frame body over 1 MiB. *)

val fd : t -> Unix.file_descr

val enqueue_frame : t -> bytes -> unit
(** Enqueue an already-encoded frame; the buffer may be shared with
    other connections and must not be mutated afterwards. *)

val flush : t -> [ `Ok | `Eof ]
(** Write queued bytes until the socket would block or the queue is
    empty, one [writev(2)] per 64 queued frames, so a short flight
    leaves in one syscall. [`Eof] means the peer is gone (reset /
    broken pipe). Arms no write interest: the owner follows up with
    {!write_through}. *)

val on_readable :
  t ->
  [ `Msgs of Gkm_wire.Msg.t list
  | `Eof of Gkm_wire.Msg.t list
  | `Error of Gkm_wire.Frame.error * Gkm_wire.Msg.t list ]
(** Read the socket and decode. Reads stop at the first read shorter
    than the 64 KiB scratch buffer, usually one syscall per message;
    under the level-triggered {!Loop}, bytes left in the socket and
    the end of stream are reported on a later step. Complete messages
    are returned in arrival order even when the read also hit
    end-of-stream ([`Eof]) or the decoder refused the stream
    ([`Error], sticky — drop the connection). *)

val write_through : Loop.t -> t -> [ `Ok | `Eof ]
(** {!flush}, then arm write interest for the fd on [loop] exactly
    while output is left queued (or the peer is gone, so the owner's
    [writable] handler sees the [`Eof] on the loop's next dispatch).
    Call it after every enqueue and from the [writable] handler. Only
    the domain that owns [loop] and polls the fd may call it. *)

val out_bytes : t -> int
(** Bytes queued but not yet written. *)

val close : t -> unit
(** Drop pending output and [close(2)] the fd (idempotent); later
    enqueues and flushes are no-ops. Deregistering from the loop is
    the owner's job. *)

val closed : t -> bool

(** Transfer counters (always on; {!Server.bytes_tx} and
    {!Server.bytes_rx} sum them over live and closed connections). *)

val bytes_rx : t -> int
val bytes_tx : t -> int
