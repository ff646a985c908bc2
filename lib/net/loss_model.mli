(** Per-receiver packet-loss models.

    The paper's analysis assumes independent Bernoulli loss per
    receiver [SZJ02, Appendix B]; the Gilbert-Elliott model adds
    bursty loss for the robustness experiments (DESIGN.md ablation:
    sensitivity of the loss-homogenized gain to loss-model
    assumptions). *)

type t =
  | Bernoulli of float  (** i.i.d. loss with the given probability *)
  | Gilbert_elliott of {
      p_gb : float;  (** transition probability good -> bad, per packet *)
      p_bg : float;  (** transition probability bad -> good, per packet *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability in the bad state *)
    }

val bernoulli : float -> t
(** @raise Invalid_argument unless the rate is in [0, 1]. *)

val bursty : mean_loss:float -> burstiness:float -> t
(** [bursty ~mean_loss ~burstiness] is a Gilbert-Elliott model tuned to
    the given stationary loss rate; [burstiness] in (0, 1) scales the
    expected burst length (higher = longer bursts). Loss is 0 in the
    good state and 1 in the bad state.
    @raise Invalid_argument on out-of-range arguments. *)

val mean_loss : t -> float
(** Stationary packet-loss probability. *)

type state
(** Mutable per-receiver channel state. *)

val init_state : t -> state
val drop : t -> state -> Gkm_crypto.Prng.t -> bool
(** [drop model state rng] samples whether the next packet is lost,
    advancing [state]. *)
