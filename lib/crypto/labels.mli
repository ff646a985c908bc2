(** The single registry of derivation labels, PRF labels, HKDF salts
    and hash domain-separation prefixes used across the tree.

    The whole set is prefix-free: because every [Hkdf.label_info]
    encoding is [label || fields], prefix-freedom guarantees that two
    derivations in different contexts can never see the same [info]
    bytes. [check] enforces it at module initialisation. *)

val traffic : string
(** Record-layer per-epoch traffic keys (HKDF info label). *)

val resume : string
(** Resumption-ticket keys (HKDF info label, field: issued epoch). *)

val resync : string
(** RESYNC request authentication (PRF label on the individual key;
    wire-pinned i32 fields). *)

val record_salt : string
(** HKDF salt for record-layer epoch keys. *)

val resume_salt : string
(** HKDF salt for resumption keys. *)

val oft_blind : string
(** SHA-256 domain prefix for OFT blinding. *)

val oft_mix : string
(** SHA-256 domain prefix for OFT sibling mixing. *)

val key_check : string
(** SHA-256 domain prefix of a classical wrap's key check
    ({!Key.check}). *)
