(** The crypto binding every key consumer is written against.

    Key wrapping, node-key caches, record sealing and resync
    authentication use {!Cipher} and {!Kdf} and never name a concrete
    primitive. Both are fixed at build time: {!Cipher} is the in-tree
    pure-OCaml AES-128 and {!Kdf} is HKDF/HMAC-SHA-256. Replacing one
    (say, with a constant-time or hardware AES) means binding another
    module of the same signature here; no caller changes, and the type
    checker holds the replacement to the signature. *)

module type CIPHER = sig
  type schedule
  (** An expanded key schedule. Expansion costs several times a block
      operation; consumers cache one schedule per key. *)

  val expand : bytes -> schedule
  (** [expand k] expands a 16-byte key.
      @raise Invalid_argument on any other length. *)

  val encrypt_block : schedule -> bytes -> bytes
  (** One 16-byte block. @raise Invalid_argument on any other length. *)

  val decrypt_block : schedule -> bytes -> bytes
  (** The inverse of [encrypt_block]. *)

  val ctr_transform : schedule -> nonce:bytes -> bytes -> bytes
  (** CTR mode from the 16-byte initial counter block [nonce],
      incremented big-endian; an involution. *)

  val ctr_blocks :
    schedule -> nonce:bytes -> len:int -> first:int -> count:int -> bytes -> bytes -> unit
  (** [ctr_blocks s ~nonce ~len ~first ~count src dst]: blocks
      [[first, first + count)] alone of [ctr_transform] over [len]
      bytes, from [src] into [dst]. *)
end

module type KDF = sig
  type salt
  (** A salt prepared for extraction. A caller with a constant salt
      prepares it once, at module initialisation. *)

  val salt : bytes -> salt

  val prf : key:bytes -> bytes -> bytes
  (** Raw keyed PRF (HMAC); the primitive under short label
      derivations and authentication tags. *)

  val derive : salt:salt -> ikm:bytes -> info:bytes -> int -> bytes
  (** Extract-then-expand: [len] bytes bound to [salt], [ikm] and the
      context [info]. *)
end

module Cipher : CIPHER
(** AES-128 ({!Aes128}). *)

module Kdf : KDF
(** HKDF-SHA-256 ({!Hkdf}), with HMAC-SHA-256 ({!Hmac}) as [prf]. *)
