(** SHA-256 (FIPS 180-4).

    Implemented from the specification; validated against the FIPS
    test vectors in the test suite. The compression function is a
    portable C kernel, table-free and data-independent in its timing;
    buffering and padding are OCaml. Used for key derivation, one-way
    function trees (OFT), and message authentication (via {!Hmac}). *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
(** [init ()] is a fresh hashing context. A context holds its chaining
    words and a partial block only; the message schedule lives on the
    kernel's stack for one compression. *)

type midstate
(** The chaining state of a context that has absorbed whole blocks
    only. Immutable: it is the fixed starting point that HMAC's
    prepared keys ({!Hmac.prepare}) keep, one per pad. *)

val midstate : ctx -> midstate
(** [midstate ctx] is a copy of [ctx]'s state; [ctx] stays usable.
    @raise Invalid_argument unless [ctx] has absorbed a multiple of 64
    bytes. *)

val resume : midstate -> ctx
(** [resume m] is a fresh context that continues from [m], as if it
    had absorbed the same bytes. *)

val update : ctx -> bytes -> unit
(** [update ctx b] absorbs the bytes [b]. *)

val update_sub : ctx -> bytes -> int -> int -> unit
(** [update_sub ctx b off len] absorbs the [len] bytes of [b] starting
    at [off], in place: whole 64-byte blocks are compressed where they
    lie, and only a partial block is copied into the context.
    @raise Invalid_argument if the slice is not inside [b]. *)

val update_string : ctx -> string -> unit
(** [update_string ctx s] absorbs the bytes of [s], without copying
    them. *)

val finalize : ctx -> bytes
(** [finalize ctx] returns the 32-byte digest. The context must not be
    reused afterwards. *)

val digest : bytes -> bytes
(** [digest b] is the 32-byte SHA-256 digest of [b]. *)
