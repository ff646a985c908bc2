(** Soak lane: repeated chaos sessions at the big configuration.

    Each iteration runs one {!Gkm.Session.run} under a fault plan
    drawn from a deterministic rotating pool, checks the same
    invariants as the [gkm chaos] command (verification, recovery,
    and — when no rejoin re-drew organization keys — DEK convergence
    against a fault-free baseline computed once), and emits one JSONL
    verdict line. Iterations repeat until the wall-clock [budget]
    expires; at least one always runs. *)

type config = {
  org : string;  (** organization selector, e.g. ["composed"] *)
  n : int;  (** steady-state group size *)
  tp : float;  (** rekey interval, seconds (simulated) *)
  intervals : int;  (** simulated rekey intervals per iteration *)
  budget : float;  (** wall-clock seconds for the whole soak *)
  seed : int;
  deliver : bool;
  verify : bool;
}

val default : config
(** The acceptance configuration: the million-member composed
    organization, Tp 60 s, 10 intervals per iteration, a 10-minute
    budget, delivery and verification on. *)

type iteration = {
  iter : int;
  plan : string;  (** the fault plan injected *)
  seconds : float;  (** wall-clock cost of this iteration *)
  faults : int;
  restores : int;
  resyncs : int;
  rejoins : int;
  verified : bool;
  recovered : bool;
  converged : bool option;
      (** DEK trace matches the fault-free baseline; [None] when
          rejoins re-drew keys and the check does not apply *)
  ok : bool;
}

type report = { iterations : iteration list; elapsed : float; ok : bool }

type verdict = {
  converged : bool option;
      (** the DEK trace equals the baseline's; [None] when rejoins
          re-drew keys and the check does not apply *)
  ok : bool;  (** verified, recovered and, where it applies, converged *)
}

val verdict : baseline:Gkm.Session.result -> Gkm.Session.result -> verdict
(** [verdict ~baseline r] judges the faulted run [r] against the
    fault-free run [baseline] of the same configuration: the check
    shared by every soak iteration and [gkm chaos]. *)

val run : ?emit:(string -> unit) -> config -> report
(** [run ?emit cfg] soaks until the budget expires. [emit] receives
    each iteration's JSONL line as it completes (default: discard).
    @raise Invalid_argument on an inconsistent configuration, as
    {!Gkm.Session.run} would. *)
