(** Shared plumbing for the reliable rekey transport protocols:
    delivery outcome, per-receiver pending state, packing. *)

type outcome = {
  rounds : int;  (** multicast rounds used (1 = no retransmission) *)
  packets : int;  (** packets multicast *)
  keys : int;  (** encrypted-key copies in data packets — the paper's
                   WKA-BKR bandwidth metric *)
  bandwidth_keys : int;  (** [keys] plus the key-slot equivalent of
                             parity packets (FEC) *)
  nacks : int;  (** negative acknowledgements driving retransmission:
                    the sum over rounds of receivers still missing
                    entries at the end of the round; 0 when the first
                    round delivers everyone *)
  undelivered : int;  (** receivers still missing entries when the
                          round limit was hit; 0 on success *)
}

(** Mutable tracking of which receiver still needs which entry. *)
module State : sig
  type t

  val create : ?loss_of:(int -> float) -> Job.t -> t
  (** [create ?loss_of job] indexes who needs what. When [loss_of]
      (receiver index -> mean loss rate) is given, the state also
      groups each entry's receivers into loss classes and keeps the
      per-class counts current as receipts arrive, so
      {!expected_replications} is O(classes) instead of
      O(receivers). *)

  val needs : t -> r:int -> e:int -> bool
  val receive : t -> r:int -> e:int -> unit
  (** Mark entry [e] received by receiver [r] (no-op if not needed). *)

  val remaining : t -> e:int -> int
  (** Receivers still needing entry [e]. *)

  val pending_entries : t -> int list
  (** Entries some receiver still needs, ascending. *)

  val all_done : t -> bool
  val undelivered_receivers : t -> int

  val expected_replications : ?bound:float -> t -> e:int -> float
  (** Formula (14) over entry [e]'s *still-missing* receivers, read
      from the incrementally maintained loss-class counts. Equals
      {!Private.expected_replications_of} over those receivers
      (bit-identical when at most two distinct non-zero loss rates are
      in play, as in the simulator's high/low channel model).
      The series stops once its running total reaches [bound]
      (default: no bound): a value below [bound] is exact, and one at
      or above it is some value no less than [bound]. A receiver at
      loss 1 makes every term 1, so only a bound ends the sum early.
      @raise Invalid_argument if the state was created without
      [~loss_of]. *)
end

val pack : capacity:int -> (int * int) list -> int list list
(** [pack ~capacity copies] turns [(entry, copy_count)] pairs, in
    order, into packets of at most [capacity] entries, preserving
    order and splitting replicas across packet boundaries.
    @raise Invalid_argument if [capacity < 1] or a count is
    negative. *)

module Private : sig
  (** The oracle the transport tests check {!State.expected_replications}
      and the seed-revision reference against. *)

  val expected_replications_of :
    loss_of:(int -> float) -> receivers:int list -> float
  (** Formula (14) of the paper evaluated over a concrete receiver set:
      expected transmissions until every listed receiver holds the key,
      given each receiver's mean loss rate. 0 for an empty set. *)
end
