(** Deterministic, splittable pseudo-random number generator.

    Based on SplitMix64. Every stochastic component of the simulator
    takes an explicit [Prng.t] so that experiments are reproducible
    from a single seed, and independent subsystems can draw from
    independent streams obtained with {!split}. *)

type t

val create : int -> t
(** [create seed] is a generator seeded deterministically from [seed]. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    the subsequent outputs of [t]. Advances [t]. *)

val save : t -> int64
(** [save t] is the full internal state, for persistence. *)

val restore : int64 -> t
(** [restore s] resumes the stream saved by {!save}. *)

val bits64 : t -> int64
(** [bits64 t] is the next 64 raw bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential with the given mean.
    @raise Invalid_argument if [mean <= 0]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
