(** HMAC-SHA-256 (RFC 2104 / FIPS 198-1). *)

type key
(** A prepared key: the SHA-256 chaining values after the ipad and the
    opad block. It is computed once by {!prepare}, never mutated, and
    may be shared between domains. It is key-equivalent: whoever holds
    it can compute every tag under the key. *)

val prepare : bytes -> key
(** [prepare raw] hashes the two pad blocks of [raw] (two
    compressions). Keys longer than the 64-byte block size are hashed
    first, per the specification. *)

val apply : key -> (bytes * int * int) list -> bytes
(** [apply key parts] is the 32-byte HMAC-SHA-256 of the concatenation
    of the slices [(b, off, len)] in [parts], each hashed where it lies
    instead of being copied into one message first. It costs the
    message's compressions plus one for the outer hash.
    @raise Invalid_argument if a slice is not inside its buffer. *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is [apply (prepare key) [msg]]. *)
