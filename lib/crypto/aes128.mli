(** Pure-OCaml AES-128 (FIPS 197).

    Provides the raw block cipher plus the two modes the key server
    needs: single-block ECB for wrapping 16-byte keys, and CTR for
    payload encryption in the examples. Validated against the FIPS 197
    and NIST SP 800-38A vectors in the test suite.

    Both directions are table-based. The forward cipher is
    byte-oriented (S-box lookups, MixColumns over GF(2^8)); the inverse
    cipher is the FIPS 197 equivalent inverse cipher over four
    256-entry tables of 32-bit words, 16 lookups per round.

    This implementation is NOT constant-time: every table lookup is
    indexed by key- and data-dependent bytes, so a co-resident attacker
    who can observe cache timing may learn key bits. That covers the key
    server's wraps and, since members unwrap with the inverse tables,
    every member's unwrap of the keys on its path too. It is intended
    for the simulator, the examples and the reference service, not for
    hosts shared with hostile code. *)

type key
(** An expanded AES-128 key schedule. {!expand} computes only the 44
    forward round-key words, packed in one 176-byte string (29 heap
    words in all). The inverse schedule (the InvMixColumns'd round keys
    of the equivalent inverse cipher, 45 more words) is built by the
    first {!decrypt_block} under the key and kept from then on, so a
    schedule that only encrypts ({!encrypt_block}, {!ctr_transform})
    never holds it. A schedule may be shared between domains: the
    inverse schedule is published atomically. *)

val expand : bytes -> key
(** [expand k] expands the 16-byte key [k].

    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k block] encrypts one 16-byte block.

    @raise Invalid_argument if [block] is not 16 bytes. *)

val decrypt_block : key -> bytes -> bytes
(** [decrypt_block k block] decrypts one 16-byte block.

    @raise Invalid_argument if [block] is not 16 bytes. *)

val ctr_transform : key -> nonce:bytes -> bytes -> bytes
(** [ctr_transform k ~nonce data] encrypts or decrypts [data] (the
    operation is an involution) in CTR mode. [nonce] must be 16 bytes
    and is used as the initial counter block, incremented big-endian.
    It is {!ctr_blocks} over every block of [data].

    @raise Invalid_argument if [nonce] is not 16 bytes. *)

val ctr_blocks :
  key -> nonce:bytes -> len:int -> first:int -> count:int -> bytes -> bytes -> unit
(** [ctr_blocks k ~nonce ~len ~first ~count src dst] is blocks
    [[first, first + count)] of CTR mode over data of [len] bytes:
    block [i] XORs the keystream of counter block [i] (the nonce plus
    [i], big-endian modulo 2^128, as {!ctr_transform} counts) over
    bytes [[16i, min (16i + 16) len)] of [src] and writes them to the
    same bytes of [dst], which may be [src]. A caller that needs only
    some of the data decrypts only its blocks.

    @raise Invalid_argument if [nonce] is not 16 bytes, a block lies
    outside the [len] bytes, or [len] exceeds [src] or [dst]. *)
