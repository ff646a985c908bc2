(** Section 4.4: bandwidth model of the proactive-FEC rekey transport
    [YLZL01], used to quantify the loss-homogenized scheme's gain
    under FEC (the paper reports up to 25.7% at alpha = 0.1 without
    showing a figure).

    Model: the rekey payload is packed into data packets ([c] keys
    each), grouped into FEC blocks of [k] packets. In round 1 the
    server multicasts each block's [k] data packets plus [a0]
    proactive Reed-Solomon parities; a receiver decodes a block once
    it holds any [k] of its packets. After each round receivers NACK
    their shortfall and the server multicasts [max shortfall] fresh
    parities. The per-block proactivity [a0] is chosen to minimize the
    expected total packets for the receiver population — the adaptive
    tuning of [YLZL01].

    Simplification (documented in DESIGN.md): every receiver is
    assumed to need every block, i.e. the sparseness of the rekey
    payload is not exploited; this is conservative and affects all
    compared schemes equally. *)

type config = {
  keys_per_packet : int;  (** c *)
  block_size : int;  (** k *)
  max_proactivity : int;  (** search bound for a0 *)
}

val default : config
(** c = 25 keys/packet, k = 16 packets/block, a0 search up to 32. *)

val one_keytree : config -> Loss_homogenized.config -> alpha:float -> float
val loss_homogenized : config -> Loss_homogenized.config -> alpha:float -> float

val reduction : config -> Loss_homogenized.config -> alpha:float -> float
(** [1 - loss_homogenized / one_keytree]. *)

module Private : sig
  (** The per-block costs a test checks; the shipped entry points fold
      them into {!one_keytree} and {!loss_homogenized}. *)

  val block_cost :
    config -> receivers:float -> composition:Wka_bkr.composition -> a0:int -> float
  (** Expected packets multicast to deliver one block to all receivers,
      with [a0] proactive parities in the first round. *)

  val optimal_block_cost :
    config -> receivers:float -> composition:Wka_bkr.composition -> int * float
  (** Minimizing [(a0, expected packets)]. *)
end
