(** Symmetric key material and key wrapping for the key server.

    Keys are 16-byte AES-128 keys. Wrapping a key under another key is
    a single AES block encryption — exactly the operation counted by
    the paper's "number of encrypted keys" rekeying-cost metric. The
    classical wrap appends a {!check} of the wrapped key, which
    depends on the key alone, so every wrap of one key carries the
    same check and the wire sends it once per refreshed key. *)

type t
(** A 16-byte symmetric key. Structural equality compares material. *)

val size : int
(** Key size in bytes (16). *)

val of_bytes : bytes -> t
(** [of_bytes b] adopts 16 bytes of material.
    @raise Invalid_argument on wrong length. *)

val to_bytes : t -> bytes
(** [to_bytes k] is a copy of the key material. *)

val fresh : Prng.t -> t
(** [fresh rng] samples a uniformly random key. *)

val equal : t -> t -> bool

val wrapped_size : int
(** Size in bytes of a classical wrap (32: the encrypted key block,
    then its {!check}). *)

val check_size : int
(** Size in bytes of a key check (16). *)

val check : t -> bytes
(** [check k] is [SHA-256(Labels.key_check || k)[0:16]]: what
    {!unwrap_with} compares the decrypted key against. It is a one-way
    function of the key, and readable by anyone who reads the wrap. *)

type cipher = Pkg.Cipher.schedule
(** An expanded key schedule. Expanding a KEK is several times the
    cost of the block encryptions a wrap performs, so the rekey hot
    path expands each KEK once and reuses the schedule for every wrap
    or unwrap under that key; CTR streams under a key take the same
    schedule through {!Pkg.Cipher.ctr_transform}. *)

val cipher : t -> cipher
(** [cipher k] expands [k] once under {!Pkg.Cipher}, for use with
    {!wrap_with}, {!unwrap_with} and {!Pkg.Cipher.ctr_transform}. *)

val wrap_with : cipher -> t -> bytes
(** [wrap_with c k] is {!wrap} with a pre-expanded KEK schedule —
    bit-identical output, without the per-call key expansion. *)

val wrap_checked_with : cipher -> check:bytes -> t -> bytes
(** [wrap_checked_with c ~check:(check k) k] is [wrap_with c k]
    without hashing [k] again: a server wrapping one refreshed key
    under each of its children computes the check once. The caller
    vouches that [check] is [check k]. *)

val unwrap_with : cipher -> bytes -> t option
(** [unwrap_with c ct] decrypts [ct]'s first block under [c] and
    returns the key if its {!check} equals [ct]'s last 16 bytes; [None]
    under a wrong or stale KEK, or if either half was altered, except
    with probability 2^-128.
    @raise Invalid_argument if [ct] has the wrong length. *)

val wrap : kek:t -> t -> bytes
(** [wrap ~kek k] is [E_kek(k) || check k]: one AES-128 block carrying
    the key, then its {!check}, so that decryption under the wrong KEK
    is detectable. A receiver holding a stale version of a wrapping
    key must not silently adopt garbage — exactly what happens to
    members that migrated between key-tree partitions. *)

val pp : Format.formatter -> t -> unit
(** Prints a short hex prefix of the key, for logs and examples. *)

val fingerprint : t -> string
(** [fingerprint k] is an 8-hex-digit identifier of the key material
    (first 4 bytes of its SHA-256), for logs and traces. At 32 bits it
    is not an identity: distinct keys share one after ~2^16 draws. *)

val digest : t -> bytes
(** [digest k] is the 32-byte SHA-256 of the key material: the identity
    of [k] where the key itself must not be retained. *)

val fingerprint_of_digest : bytes -> string
(** [fingerprint_of_digest (digest k)] is [fingerprint k] without
    hashing [k] again, for callers that need both. *)
