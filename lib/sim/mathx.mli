(** Numeric helpers shared by the analytic models.

    The paper's formulas involve binomial coefficients over group
    sizes up to 2{^18} and continuous relaxations of member counts, so
    everything here works on floats via the log-gamma function. *)

val ln_choose : float -> float -> float
(** [ln_choose n k] is ln(C(n, k)) with the conventions
    [ln_choose n 0 = 0] and [neg_infinity] when [k > n] or [k < 0].
    Continuous in both arguments. *)

val choose_ratio : total:float -> excluded:float -> draws:float -> float
(** [choose_ratio ~total ~excluded ~draws] is
    [C(total - excluded, draws) / C(total, draws)] — the probability
    that none of [draws] uniform draws without replacement from
    [total] items hits a designated set of [excluded] items. Returns
    0 when [draws > total - excluded]. This is the complement of
    formula (11) in the paper. *)

val logd : d:int -> float -> float
(** [logd ~d x] is log base [d] of [x]. *)
