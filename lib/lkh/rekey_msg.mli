(** The rekey message: the set of encrypted keys produced by one
    (batched) group rekeying, before it is packed into packets by a
    rekey transport protocol.

    Each entry is a single wrapping E_{K_child}(K_node). A member is
    interested in exactly the entries whose wrapping key it holds —
    the "sparseness property" the reliable rekey transports exploit.

    In the derived-key mode a message additionally carries derivation
    notices, which reuse the same entry shape: [wrapped_under] names
    the derivation input key (a child for an up-derivation, the target
    itself for a roll) and the payload is the 4-byte source version
    instead of a 32-byte wrapped key — so every transport, codec and
    interest computation handles both kinds without change. *)

type entry = {
  target_node : int;  (** node id of the key being distributed *)
  target_version : int;  (** tree epoch of the fresh key *)
  level : int;
      (** depth of the target node; root = 0. A sender-side annotation
          for the transports' scheduling: it is not on the wire, and a
          decoded entry carries 0. *)
  wrapped_under : int;  (** node id of the wrapping or derivation-input key *)
  receivers : int;
      (** number of members that need this entry. A sender-side
          annotation, like [level]: not on the wire, 0 when decoded. *)
  ciphertext : bytes;
      (** one of three self-describing payloads, distinguished by
          length: [Key.wrap ~kek:child target] (32 bytes, classical
          wrap: the encrypted block, then the target key's
          [Key.check], which every wrap of that key shares); the 4-byte big-endian wrapping-key version followed by
          a single-block [E_child(target)] (20 bytes, derived-mode
          compact wrap); or the 4-byte big-endian source version alone
          (derivation notice) *)
}

type t = {
  epoch : int;
  root_node : int;  (** node id of the group key after this rekeying *)
  entries : entry list;  (** deepest targets first *)
}

val of_updates : epoch:int -> root_node:int -> Gkm_keytree.Keytree.update list -> t
(** Performs the actual encryptions for every wrap of every update
    (one AES block per wrap, one [Key.check] per classically wrapped
    update), and encodes every derivation notice (notices first within an
    update, so the deepest-first ordering across updates still means a
    member always processes the input key before its dependents). *)

val derive_payload_bytes : int
(** Payload size of a derivation notice (4). The three payload sizes —
    4 (notice), {!compact_wrap_bytes} (20), [Key.wrapped_size] (32) —
    keep the entry kinds unambiguous. *)

val compact_wrap_bytes : int
(** Payload size of a derived-mode compact wrap (20): the 4-byte
    wrapping-key version plus one encrypted block. Compact wraps drop
    the classical key check; the receiver rejects stale wrapping
    keys through the version guard instead (the same check derivation
    notices use), and any residual corruption is caught by the
    session-level group-key verification and repaired by resync. *)

val is_derive : entry -> bool
(** Whether the entry is a derivation notice rather than a wrap. *)

val is_roll : entry -> bool
(** Whether the entry is an in-place roll notice (its own target is
    the derivation input). *)

val derive_src_version : entry -> int
(** The source-key version carried by a derivation notice. *)

val is_compact_wrap : entry -> bool
(** Whether the entry is a derived-mode compact wrap. *)

val compact_src_version : entry -> int
(** The wrapping-key version a compact wrap requires. *)

val compact_wrapped_key : entry -> bytes
(** The single-block ciphertext of a compact wrap (16 bytes). *)

val size_keys : t -> int
(** Number of entries — the paper's bandwidth metric counts encrypted
    keys; derivation notices are counted here too (they occupy message
    slots) but weigh only {!derive_payload_bytes} in {!size_bytes}. *)

val size_bytes : t -> int
(** A fixed-header size model: per entry, a 16-byte header (three
    4-byte ids and a 4-byte version) plus the ciphertext. [bench macro]
    reports it; it is not the wire, whose exact size is that of
    [Gkm_transport.Packet.encode_payload]. *)

val entry_id : entry -> int * int
(** [(target_node, wrapped_under)] — unique within a message; used by
    transports to track which entries a receiver still misses. *)

val pp : Format.formatter -> t -> unit
