(** Systematic Reed-Solomon erasure code over GF(2^8).

    Data is split into [k] equal-length shards. Each byte position
    across the shards is treated as [k] evaluations of a polynomial of
    degree [k - 1] at the field points [0 .. k-1]; parity shard [j] is
    the evaluation at point [k + j]. Any [k] distinct shards (data or
    parity) reconstruct the data — the classic MDS property needed by
    the proactive-FEC rekey transport, where the key server keeps
    generating fresh parity packets across retransmission rounds
    without repeating itself.

    Limits: [k + number_of_parity_shards <= 256]. *)

type code

val create : k:int -> code
(** [create ~k] prepares a code with [k] data shards.
    @raise Invalid_argument unless [1 <= k <= 255]. *)

val max_parity : code -> int
(** Largest parity index + 1 this code can produce (= 256 - k). *)

val parity_shard : code -> data:bytes array -> index:int -> bytes
(** [parity_shard c ~data ~index] computes parity shard [index]
    (0-based) for the [k] data shards.

    @raise Invalid_argument if [data] does not have [k] shards of
    equal length, or if [index] is out of range. *)

val encode : code -> data:bytes array -> nparity:int -> bytes array
(** [encode c ~data ~nparity] is parity shards [0 .. nparity-1]. *)

val decode : code -> shards:(int * bytes) list -> bytes array option
(** [decode c ~shards] reconstructs the [k] data shards from any [k]
    of the shards. Shard indices are global: [0 .. k-1] are data,
    [k + j] is parity [j]. Extra shards beyond [k] are ignored;
    duplicate indices count once. Returns [None] if fewer than [k]
    distinct shards are supplied.

    @raise Invalid_argument on inconsistent shard lengths or
    out-of-range indices. *)
