(** Fitting the two-exponential mixture model to observed membership
    durations — the adaptive tuning sketched in Section 3.4: "from its
    collected trace data [the key server] can compute the group
    statistics such as Ms, Ml, and alpha", then pick the best scheme
    and S-period from the analytic model. *)

type mixture = {
  alpha : float;  (** weight of the short component *)
  ms : float;  (** short mean *)
  ml : float;  (** long mean (>= ms) *)
}

val em : float list -> mixture
(** [em durations] fits a two-component exponential mixture by
    expectation-maximization, for at most 200 steps or until a step
    moves the fit by less than 1e-9. Requires at least 2 positive
    observations; components are returned with [ms <= ml].
    @raise Invalid_argument on empty/invalid input. *)
