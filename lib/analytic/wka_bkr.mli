(** Appendix B: the bandwidth model of the WKA-BKR reliable rekey
    transport [SZJ02], generalized to heterogeneous receiver loss and
    to forests of key trees.

    For one encryption of an updated key needed by [R] receivers with
    independent per-packet loss, the number of transmissions until all
    [R] hold it satisfies

      P[M <= m] = prod_r (1 - p_r^m)                      (formula 13)
      E[M] = sum_{m>=1} (1 - prod_r (1 - p_r^{m-1}))      (formula 14)

    and the expected rekey bandwidth is the sum of E[M] over every
    wrap of every key expected to be updated (formulas 11, 15). *)

type composition = (float * float) list
(** [(fraction, loss_rate)] pairs; fractions must sum to ~1. Receivers
    of a subtree are assumed to be a uniform mix of these classes. *)

val uniform : float -> composition
(** Single-class composition. *)

val two_class : alpha:float -> ph:float -> pl:float -> composition
(** Fraction [alpha] at loss [ph], the rest at [pl]. *)

val validate_composition : composition -> unit
(** @raise Invalid_argument on bad fractions or loss rates. *)

type tree = {
  size : int;  (** members in this key tree *)
  departures : int;  (** batched departures from this tree *)
  composition : composition;
}

val forest_cost : d:int -> tree list -> float
(** Multiple key trees joined under the group key: each tree is a
    subtree of the root DEK node. The DEK is refreshed whenever any
    tree sees a departure and must be re-encrypted under each tree
    root (delivered to that tree's full membership). A single
    non-empty tree is costed alone (formula 15) — the root of the only
    tree IS the DEK, matching the paper's one-keytree baseline. Empty
    trees are skipped. *)

module Private : sig
  (** Formula 14 on its own, which {!forest_cost} sums over every
      wrap; the tests check it against closed forms. *)

  val expected_replications : receivers:float -> composition -> float
  (** [E[M]] for one encryption needed by [receivers] receivers drawn
      from [composition] (formula 14, evaluated with real-valued class
      counts [fraction * receivers]). Returns 0 when [receivers <= 0]. *)
end
