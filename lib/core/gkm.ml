(** Group key management for secure multicast.

    This library implements the two key-tree optimizations of Zhu,
    Setia & Jajodia, {e Performance Optimizations for Group Key
    Management Schemes for Secure Multicast} (ICDCS 2003), on top of a
    complete LKH stack (see [Gkm_lkh], [Gkm_keytree], [Gkm_transport],
    [Gkm_analytic], [Gkm_workload]).

    - {!Scheme} — the two-partition rekeying schemes of Section 3
      (one-keytree baseline, QT, TT, and the PT oracle).
    - {!Organization} — the pluggable organization interface: a bare
      scheme, or one scheme per band under a composed DEK — Section
      4's loss-homogenized multi-tree (k loss bands) with one-keytree
      bands, both optimizations stacked with two-partition ones.
    - {!Adaptive} — the Section 3.4 controller: fit Ms/Ml/alpha from
      observed durations and retune the S-period online.
    - {!Session} — a full secure-multicast session under the
      discrete-event engine: churn, batched rekeying, lossy delivery,
      per-interval member verification, deadline tracking.
    - {!Sim_driver} — the experiment drivers behind the benchmark
      harness's simulation cross-checks. *)

module Scheme = Scheme
module Organization = Organization
module Adaptive = Adaptive
module Session = Session
module Sim_driver = Sim_driver
