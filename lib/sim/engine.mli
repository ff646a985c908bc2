(** Discrete-event simulation engine.

    Events are thunks scheduled at absolute simulated times; the
    engine executes them in time order (FIFO among equal times). The
    membership workloads and the end-to-end rekeying simulations are
    driven by one engine instance each. *)

type t

val create : unit -> t
(** A fresh engine with the clock at 0. *)

val now : t -> float
(** Current simulated time. *)

val schedule : t -> at:float -> (t -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at].

    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f].

    @raise Invalid_argument if [delay < 0]. *)

val run : ?until:float -> t -> unit
(** [run ?until t] executes events until the queue is empty or the
    next event is strictly after [until]. The clock is advanced to
    [until] (when given) even if the queue drains earlier. *)
