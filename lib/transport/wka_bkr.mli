(** The WKA-BKR reliable rekey transport [SZJ02].

    Weighted Key Assignment: in the first round, each encrypted key is
    proactively replicated according to its expected number of
    transmissions (formula 14) computed from the loss rates of the
    receivers that need it; keys are packed into packets breadth-first
    (most valuable, highest-level keys first).

    Batched Key Retransmission: after each round, receivers NACK; the
    server re-packs only the keys still needed by someone — weighted
    by the remaining receivers — instead of resending lost packets. *)

type config = {
  keys_per_packet : int;
  max_rounds : int;
  weight_cap : int;  (** upper bound on per-key replication per round *)
}

val deliver :
  ?config:config -> channel:Gkm_net.Channel.t -> Job.t -> Delivery.outcome
(** Run the protocol (by default 25 keys/packet, 100 rounds, replication
    capped at 16) until every receiver holds all entries it needs
    (or [max_rounds] is hit — see [outcome.undelivered]). *)
