(** Probabilistic key-tree organization [SMS00] (Section 2.3 of the
    paper): place members that are more likely to leave closer to the
    root, "in a spirit similar to data compression algorithms such as
    Huffman and Shannon-Fano coding".

    For the paper's two-class population this reduces to choosing real
    depths (ds, dl) for the short and long classes that minimize the
    expected per-interval rekeying work under individual rekeying,

      cost = d * (Lcs * ds + Lcl * dl),

    subject to the Kraft feasibility of a d-ary tree,

      Ncs * d^(-ds) + Ncl * d^(-dl) <= 1.

    Like the PT oracle, it assumes the class of each member is known
    at join time; unlike the two-partition schemes it keeps a single
    tree. Implemented as the A5 ablation: how much of the
    two-partition gain does pure depth optimization recover? *)

val optimal_depths : Params.t -> float * float
(** [(ds, dl)] minimizing the expected cost; both >= 1 when both
    classes are non-empty, and tight on the Kraft constraint. *)

val reduction : Params.t -> float
(** [1 - cost / balanced_cost]. *)
