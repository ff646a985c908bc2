(** Single-threaded epoll(7) event loop. Linux-only.

    One loop drives any number of registered descriptors (the netd
    server, its accepted connections, and — in the end-to-end tests
    and the benchmark — every in-process client as well) plus a
    one-shot timer queue. Each descriptor is registered with the
    kernel once; a {!step} waits only for ready descriptors and costs
    nothing per idle one, so a thousand quiet members cost a step no
    more than ten.

    Output is write-through: an owner writes a frame as soon as it
    queues it, and arms write interest ({!set_write_interest}) only
    when the socket could not take every byte (or while a
    non-blocking connect is in flight), disarming it once the queue
    drains. There is no per-step "does this fd want to write?" scan.

    Handlers run on the loop's thread; they may register and remove
    descriptors (including their own) and schedule timers freely, but
    must not call {!step} (the batch being dispatched lives in a
    buffer the next wait refills). An
    event for a descriptor removed earlier in the same batch is
    dropped, even if its number was already reused by a new
    registration. *)

type t

val create : unit -> t
(** A loop that is never {!close}d releases its epoll descriptor when
    it is garbage collected. *)

val close : t -> unit
(** Release the epoll descriptor (idempotent). Registered descriptors
    are not closed. The loop cannot step afterwards. *)

val now : t -> float
(** Wall-clock time ([Unix.gettimeofday]). *)

val add_fd : t -> Unix.file_descr -> readable:(unit -> unit) -> writable:(unit -> unit) -> unit
(** Register a (non-blocking) descriptor with read interest. Write
    interest starts disarmed; [writable] runs only while it is armed.
    @raise Invalid_argument if already registered. *)

val remove_fd : t -> Unix.file_descr -> unit
(** Deregister (does not close). No-op if unknown. *)

val set_write_interest : t -> Unix.file_descr -> bool -> unit
(** Arm ([true]) or disarm write interest. Free when the interest is
    already in that state; no-op for an unregistered descriptor. *)

val after : t -> delay:float -> (unit -> unit) -> unit

val step : ?max_wait:float -> t -> unit
(** One iteration: fire due timers, wait for readiness (bounded by
    [max_wait], default 0.2 s, or the next timer if sooner, rounded up
    to the next millisecond), dispatch, fire due timers. *)

type counters = {
  steps : int;  (** {!step} calls *)
  dispatched : int;  (** [readable] / [writable] callbacks run *)
  interest_changes : int;  (** write interest armed or disarmed *)
}

val run : t -> until:(unit -> bool) -> unit
(** Iterate {!step} until [until ()] holds. *)

module Private : sig
  (** Loop internals the tests assert on: the O(ready) dispatch bound
      and its running totals. *)

  val max_events : int
  (** Ready descriptors one {!step} dispatches at most; any others are
      served by the following steps. *)

  val counters : t -> counters
  (** Running totals since {!create}. *)
end
