(** Deterministic, seeded fault injection for the end-to-end session.

    A fault {!plan} is a pure value describing what goes wrong and
    when: the key server crashing at a rekey interval, a burst of
    extra loss or a full partition on the multicast channel over a
    sim-time window, a member's placement unicast being dropped or
    delayed, a rekey-message entry being corrupted in flight, or a
    member's key state being desynchronized outright. Plans parse
    from and print to a compact CLI syntax ({!of_string} /
    {!to_string}).

    A plan compiles onto the existing machinery rather than adding
    new simulation paths: an {!Injector} is consulted by
    [Gkm.Session] when it builds each interval's
    [Gkm_net.Channel] (loss overrides), schedules window-boundary
    events on the [Gkm_sim.Engine] ({!Injector.arm}), and decides
    crash / unicast / desync behavior per interval. All injector
    randomness (backoff jitter, corruption positions) comes from its
    own seeded PRNG stream, so a run with a given plan and seed is
    fully deterministic and never perturbs the session's own
    streams. *)

type target = All | Members of int list  (** who a channel fault hits *)

type fault =
  | Crash of { interval : int }
      (** the key server loses volatile state at the start of rekey
          interval [interval] (1-based) and restores from its last
          snapshot plus the membership write-ahead log *)
  | Burst_loss of { from_t : float; until_t : float; extra : float; target : target }
      (** extra i.i.d. loss composed with each targeted receiver's
          base rate over sim-time window [\[from_t, until_t)) *)
  | Partition of { from_t : float; until_t : float; target : target }
      (** targeted receivers lose all multicast traffic over the
          window *)
  | Drop_unicast of { interval : int; member : int }
      (** the member's placement unicast of that interval is lost *)
  | Delay_unicast of { interval : int; member : int; by : int }
      (** ... is delivered [by >= 1] intervals late *)
  | Corrupt of { interval : int }
      (** one rekey-message entry (chosen by the injector PRNG) is
          corrupted in flight that interval *)
  | Desync of { interval : int; member : int }
      (** the member's entire key state is wiped at that interval *)

type plan = fault list

val to_string : plan -> string
(** Compact selector syntax, the inverse of {!of_string}. *)

val of_string : string -> (plan, string) result
(** Parse a [';']-separated plan:
    - ["crash@K"]
    - ["loss@T0-T1:RATE"] / ["loss@T0-T1:RATE:M1,M2,..."]
    - ["partition@T0-T1:*"] / ["partition@T0-T1:M1,M2,..."]
    - ["drop@K:M"], ["delay@K:M:D"], ["corrupt@K"], ["desync@K:M"]

    Times are sim seconds, [K] a 1-based rekey interval, [M] member
    ids. An empty string is the empty plan. *)

(** The stateful side: one injector drives one session run. *)
module Injector : sig
  type t

  val create : ?seed:int -> plan -> t
  (** @raise Invalid_argument if the plan has an interval or a delay
      below 1, an empty window, or a rate outside [0, 1]. *)

  val rng : t -> Gkm_crypto.Prng.t
  (** The injector's own PRNG stream (backoff jitter, corruption
      positions). Independent of every session stream. *)

  val arm : t -> engine:Gkm_sim.Engine.t -> unit
  (** Schedule the windowed faults' open/close boundaries as engine
      events, so window activations are journalled (and counted) at
      the sim time they take effect. *)

  val crash_at : t -> interval:int -> bool

  val partitioned : t -> time:float -> member:int -> bool
  (** Is the member cut off from all multicast traffic at [time]? *)

  val channel_faulty : t -> time:float -> bool
  (** Is any channel-level fault (burst loss or partition) active? *)

  val loss_rate : t -> time:float -> member:int -> float -> float
  (** Effective loss rate for a member whose base rate is the last
      argument: 1.0 under an active partition, the composed rate
      [1 - (1-base)(1-extra)] under burst loss, else the base. *)

  val loss_model :
    t -> time:float -> member:int -> Gkm_net.Loss_model.t -> Gkm_net.Loss_model.t
  (** Channel-construction hook: maps the member's base loss model
      through {!loss_rate} (identity when no fault targets the
      member at [time]). *)

  val dropped_unicast : t -> interval:int -> member:int -> bool
  val delayed_unicast : t -> interval:int -> member:int -> int option
  val corrupt_at : t -> interval:int -> bool

  val desyncs_at : t -> interval:int -> int list
  (** Members desynchronized at that interval, sorted ascending. *)

  val record : t -> time:float -> kind:string -> ?member:int -> unit -> unit
  (** Count one fault taking effect: always bumps the injector's own
      counter; additionally increments the [fault.injected] metric
      and journals a [fault.injected] event when observability is
      on. *)

  val injected : t -> int
  (** Faults that have taken effect so far. *)
end
