(** Section 3.3.1: the steady-state analytic model of the
    two-partition rekeying algorithm.

    The group is an open two-class queueing system: joins arrive at
    rate [J] per rekey interval, a fraction [alpha] from the
    short-duration class Cs (exponential mean [Ms]) and the rest from
    Cl (mean [Ml]). Members spend their first [K] intervals in the
    S-partition; survivors are migrated in batch to the L-partition.

    The model yields per-interval rekeying costs (in encrypted keys)
    for the four schemes: the one-keytree baseline, QT (queue + tree),
    TT (tree + tree) and PT (the oracle that places members by their
    true class). *)

type scheme = One_keytree | Qt | Tt | Pt

val scheme_name : scheme -> string
type derived = {
  j : float;  (** joins (= departures) per rekey interval *)
  ncs : float;  (** steady-state members of class Cs *)
  ncl : float;  (** steady-state members of class Cl *)
  lcs : float;  (** class-Cs departures per interval *)
  lcl : float;  (** class-Cl departures per interval *)
  ns : float;  (** members resident in the S-partition *)
  nl : float;  (** members resident in the L-partition *)
  lm : float;  (** migrations S -> L per interval *)
  ls : float;  (** departures from the S-partition per interval *)
  ll : float;  (** departures from the L-partition per interval *)
}

val derive : Params.t -> derived
(** Solve the steady state (formulas 1-7).
    @raise Invalid_argument via {!Params.validate}. *)

val cost : Params.t -> scheme -> float
(** Expected encrypted keys per rekey interval (formulas 8-10, with
    the one-keytree baseline as [Ne(N, J)]). *)

val reduction : Params.t -> scheme -> float
(** [1 - cost scheme / cost One_keytree] — the relative bandwidth
    saving plotted in Fig. 5. *)

val best_k : Params.t -> scheme -> k_max:int -> int * float
(** [best_k p scheme ~k_max] scans S-periods [0 .. k_max] and returns
    the cheapest [(k, cost)] — the adaptive tuning sketched in
    Section 3.4. *)
