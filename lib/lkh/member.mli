(** Member-side state machine.

    A member holds its individual key plus every path key it has
    learned. It processes rekey messages by unwrapping exactly the
    entries whose wrapping key it holds, and tracks the current group
    key. Used by the integration tests and the end-to-end simulations
    to verify that rekeying actually delivers (and withholds) keys
    correctly. *)

type t

val create : id:int -> leaf_node:int -> individual_key:Gkm_crypto.Key.t -> t
(** [create ~id ~leaf_node ~individual_key] is a member that initially
    holds only its individual key, bound to its leaf node id. *)

val id : t -> int

val install_path : t -> (int * Gkm_crypto.Key.t) list -> unit
(** Install keys delivered over the secure unicast channel (initial
    join outside a batch, or partition migration). *)

val set_root : t -> int -> unit
(** Tell the member which node id currently carries the group key
    (rekey messages carry this; unicast installs need it said). *)

val process : t -> Rekey_msg.t -> int
(** [process t msg] consumes every entry the member can decrypt, in
    message order, and returns how many entries it used. Updates the
    group-key binding to the message's root node. *)

val process_entry : t -> Rekey_msg.entry -> bool
(** Process a single entry (used by transports delivering packets out
    of order); [true] if it was decrypted and stored. *)

val interested : t -> target:int -> version:int -> under:int -> bool
(** Whether the member holds the wrapping key [under] of an entry and
    does not yet hold its target node [target] at [version]. It takes
    an entry's metadata only, so a receiver asks it before decrypting
    the entry's key material: {!process_entry} of an entry it refuses
    is a no-op [false]. *)

val group_key : t -> Gkm_crypto.Key.t option

module Private : sig
  (** What a member holds, for the secrecy tests: no shipped path asks. *)

  val key_of : t -> int -> Gkm_crypto.Key.t option
end
