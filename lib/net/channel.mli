(** A lossy multicast channel over a fixed receiver population.

    Each receiver has its own loss model and loss state; a multicast
    advances every receiver's channel and reports who got the packet.
    Receivers are addressed both by dense index (fast arrays in the
    transports) and by member id (binding to the key tree). *)

type receiver = {
  member : int;  (** member id in the key tree *)
  model : Loss_model.t;
  state : Loss_model.state;
}

type t

val create : rng:Gkm_crypto.Prng.t -> (int * Loss_model.t) list -> t
(** [create ~rng receivers] builds a population from
    [(member id, loss model)] pairs.
    @raise Invalid_argument on duplicate member ids. *)

val size : t -> int
val receiver : t -> int -> receiver
(** By dense index, [0 .. size - 1]. *)

val index_of_member : t -> int -> int
(** Dense index of a member id. @raise Not_found. *)

val multicast_into : t -> bool array -> unit
(** [multicast_into t mask] sends one packet and writes its delivery
    mask by dense index ([true] = received) into the caller's buffer:
    the transports' per-packet inner loops reuse one mask for the
    whole delivery instead of allocating [size t] booleans per packet.
    @raise Invalid_argument if [mask] length differs from [size t]. *)

(** Population builders used by the experiments. *)

val two_class :
  rng:Gkm_crypto.Prng.t ->
  n:int ->
  alpha:float ->
  high:Loss_model.t ->
  low:Loss_model.t ->
  t * int list * int list
(** [two_class ~rng ~n ~alpha ~high ~low] builds members [0 .. n-1]
    where a fraction [alpha] (chosen uniformly at random) uses the
    [high] model. Returns the channel plus the high-loss and low-loss
    member lists.
    @raise Invalid_argument if [alpha] outside [0, 1] or [n < 0]. *)
