(** The master observability switch.

    Instrumentation in the hot paths (key server, rekey transports,
    session loop, simulation engine) is guarded by {!enabled} so that
    a disabled run pays exactly one branch per instrumentation site —
    no allocation, no hashing, no clock reads. The switch is global
    and off by default; front ends (CLI, bench harness, tests) turn it
    on for the duration of an observed run.

    Recording must never perturb the observed computation: none of the
    [Gkm_obs] modules draw randomness or mutate anything outside their
    own accumulators, so a run produces bit-identical results whether
    observability is on or off. *)

val enabled : unit -> bool
(** Current state of the switch (a single [bool ref] read). *)

val set_enabled : bool -> unit
