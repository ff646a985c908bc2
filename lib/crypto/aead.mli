(** Encrypt-then-MAC AEAD from the in-tree primitives: {!Pkg.Cipher}
    (AES-128) in CTR mode for confidentiality, HMAC-SHA-256 truncated
    to 16 bytes for integrity.

    A sealed blob is [ciphertext || tag] where the tag covers the
    length-prefixed associated data, the nonce, and the ciphertext.
    The caller owns nonce uniqueness: sealing two different plaintexts
    under the same key and nonce destroys confidentiality (CTR keystream
    reuse), exactly as with any stream-cipher AEAD, and so does any
    overlap of two messages' counter blocks: CTR counts one block at a
    time up from the nonce. The record layer guarantees neither
    happens by putting a strictly increasing sequence number in the
    nonce's high 8 bytes, leaving the low 8 to count blocks, and by
    never reusing a key across epochs. *)

type key
(** An AEAD key: an expanded {!Pkg.Cipher} schedule plus an
    independent MAC key, held prepared ({!Hmac.prepare}) so that a
    seal or an open pays no pad compressions. *)

val key_size : int
(** Raw key material size: 32 (16 encryption || 16 MAC). *)

val nonce_size : int
(** 16 — the full AES-CTR initial counter block. *)

val tag_size : int
(** 16 — HMAC-SHA-256 truncated to 128 bits. *)

val of_bytes : bytes -> key
(** [of_bytes raw] splits 32 bytes of key material into the encryption
    and MAC halves, expanding the encryption half under {!Pkg.Cipher}
    and preparing the MAC half. [raw] is not retained.
    @raise Invalid_argument on any other length. *)

val seal : key -> nonce:bytes -> ad:bytes -> bytes -> bytes
(** [seal key ~nonce ~ad plaintext] is [ciphertext || tag], exactly
    [tag_size] bytes longer than the plaintext.
    @raise Invalid_argument if [nonce] is not 16 bytes or [ad] exceeds
    65535 bytes. *)

val open_ : key -> nonce:bytes -> ad:bytes -> bytes -> (bytes, string) result
(** [open_ key ~nonce ~ad sealed] verifies the tag in constant time and
    returns the plaintext: {!verify}, then {!plaintext}. Any tampering
    — with the ciphertext, the tag, the nonce, or the associated data
    — yields [Error]. Never raises on untrusted input. *)

(** {1 Opening by range}

    A receiver that uses only part of a sealed blob opens it in two
    steps: one MAC over the whole blob, checked before any byte is
    used; then CTR decryption of just the byte ranges it reads, each
    counter block at most once. Block [i] covers plaintext bytes
    [[16i, 16i + 16)] and decrypts under the nonce plus [i], exactly
    as the whole open counts. *)

type opened
(** A blob whose tag verified, decrypted on demand. It keeps the
    [nonce] and [sealed] bytes it was verified from: the caller must
    not change them while it is in use. *)

val verify : key -> nonce:bytes -> ad:bytes -> bytes -> (opened, string) result
(** [verify key ~nonce ~ad sealed] checks the tag as {!open_} does and
    decrypts nothing. Never raises on untrusted input. *)

val blocks : opened -> int
(** Counter blocks the plaintext spans: the blob's length less
    {!tag_size}, over 16, rounded up. *)

val blocks_decrypted : opened -> int
(** Counter blocks decrypted so far; 0 right after {!verify}. *)

val parse : opened -> off:int -> (Codec.reader -> 'a) -> ('a, string) result
(** [parse o ~off decode] runs [decode] over plaintext bytes
    [[off, length)] as {!Codec.parse_from}: each read decrypts the
    counter blocks it touches that no earlier read of [o] decrypted,
    and {!Codec.skip} decrypts none.
    @raise Invalid_argument if [off] lies outside the plaintext. *)

val plaintext : opened -> bytes
(** The whole plaintext, its remaining blocks decrypted now. The bytes
    are [o]'s own: later calls return them again. *)
