(** Streaming statistics accumulators for simulation metrics. *)

type t
(** Accumulates count, mean and variance (Welford). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val ci95_halfwidth : t -> float
(** Half-width of a normal-approximation 95% confidence interval for
    the mean; [nan] if fewer than 2 observations. *)

(** Reservoir of raw observations for quantile queries. *)
module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  val quantile : t -> float -> float
  (** [quantile s q] for [q] in [0, 1], linear interpolation between
      order statistics.
      @raise Invalid_argument if empty or [q] outside [0, 1]. *)
end
