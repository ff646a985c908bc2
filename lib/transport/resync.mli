(** Member re-synchronization: bounded retry with jittered
    exponential backoff.

    A member that detects it has fallen behind the group key (missed
    placement unicast, desynchronized state, recovered from a
    partition) sends a resync request to the key server; the server
    answers with a unicast catch-up of the member's current path
    keys. Request and response each cross the member's lossy path
    once, so one attempt succeeds with probability [(1-p)^2]. Failed
    attempts back off exponentially with multiplicative jitter drawn
    from the caller's seeded PRNG; after [max_attempts] the member
    gives up and falls back to a full rejoin.

    The exchange is modelled in virtual time: [loss_at elapsed] gives
    the member's loss rate [elapsed] seconds after the first attempt,
    so a fault window that closes mid-backoff lets later attempts
    succeed. Every attempt consumes exactly two Bernoulli draws plus
    one jitter draw per backoff, keeping the PRNG stream consumption
    independent of the outcomes. *)

type config = {
  max_attempts : int;
  rtt : float;  (** request + response time per attempt, seconds *)
  base_delay : float;  (** first backoff, seconds *)
  max_delay : float;  (** backoff cap, before jitter *)
  jitter : float;  (** multiplicative jitter fraction in [0, 1) *)
}

val default : config
(** 8 attempts, rtt 2 s, backoff 1 s doubling up to 60 s, 50% jitter. *)

type outcome =
  | Synced of { attempts : int; latency : float }
  | Gave_up of { attempts : int; latency : float }
      (** [latency] is the virtual time from first request to the
          final response (or final timeout). *)

val request :
  ?config:config ->
  rng:Gkm_crypto.Prng.t ->
  loss_at:(float -> float) ->
  unit ->
  outcome
(** Run one resync exchange to completion in virtual time.
    @raise Invalid_argument on a non-positive attempt budget or rtt,
    a negative delay, or jitter outside [0, 1). *)
