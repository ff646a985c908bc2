(** HKDF-style extract-and-expand key derivation (RFC 5869 over
    {!Hmac}, i.e. HMAC-SHA-256).

    The record layer derives its per-epoch traffic keys from the group
    DEK with {!derive}; resumption-ticket sealing keys come from the
    member's individual key the same way. Matched against the RFC 5869
    test vectors in the crypto test suite. *)

val derive : salt:Hmac.key -> ikm:bytes -> info:bytes -> int -> bytes
(** [derive ~salt ~ikm ~info len] extracts the 32-byte pseudorandom key
    [HMAC(salt, ikm)] and expands it to [len] bytes bound to the
    context [info]. The salt comes prepared ({!Hmac.prepare}): a caller
    with a constant salt prepares it once.
    @raise Invalid_argument if [len] is outside [1, 255 * 32]. *)

val label_info : string -> int list -> bytes
(** [label_info label fields] is a canonical [info] encoding: the
    ASCII label followed by each field as a big-endian i64 — the
    convention every derivation in this codebase uses, so two
    derivations collide only if label and fields all agree. *)
