(** The rekey message: the set of encrypted keys produced by one
    (batched) group rekeying, before it is packed into packets by a
    rekey transport protocol.

    Each entry is a single wrapping E_{K_child}(K_node). A member is
    interested in exactly the entries whose wrapping key it holds —
    the "sparseness property" the reliable rekey transports exploit.
    A receiver exploits it too: {!Member.interested} reads only an
    entry's target, version and wrapping node, which a packet payload
    carries ahead of the key material ({!Gkm_transport.Packet}), so a
    member decrypts the key material of only the entries it uses. *)

type entry = {
  target_node : int;  (** node id of the key being distributed *)
  target_version : int;  (** tree epoch of the fresh key *)
  level : int;
      (** depth of the target node; root = 0. A sender-side annotation
          for the transports' scheduling: it is not on the wire, and a
          decoded entry carries 0. *)
  wrapped_under : int;  (** node id of the wrapping key *)
  receivers : int;
      (** number of members that need this entry. A sender-side
          annotation, like [level]: not on the wire, 0 when decoded. *)
  ciphertext : bytes;
      (** [Key.wrap ~kek:child target] ([Key.wrapped_size] = 32 bytes:
          the encrypted block, then the target key's [Key.check], which
          every wrap of that key shares) *)
}

type t = {
  epoch : int;
  root_node : int;  (** node id of the group key after this rekeying *)
  entries : entry list;  (** deepest targets first *)
}

val of_updates : epoch:int -> root_node:int -> Gkm_keytree.Keytree.update list -> t
(** Performs the actual encryptions for every wrap of every update:
    one AES block per wrap and one [Key.check] per update. *)

val size_keys : t -> int
(** Number of entries — the paper's bandwidth metric, "number of
    encrypted keys". *)

val for_audience : fresh:(int * Gkm_crypto.Key.t) list list -> entry list -> entry list
(** [for_audience ~fresh entries] drops the entries that only fresh
    members could use, keeping the rest in order. [fresh] holds the
    full key paths (node id, key), leaf first, of the members that are
    sent their whole path by unicast this rekey. An entry is kept iff
    its [receivers] exceed the fresh paths through its [wrapped_under]
    node, so [receivers] must count every holder of the wrapping key:
    an undercount would drop an entry a member outside [fresh] needs. *)
