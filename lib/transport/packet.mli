(** Packet-level framing of rekey payloads.

    {!Job}-based delivery tracks packets symbolically for speed; this
    module provides the real wire path: entries are serialized into
    packet payloads of bounded capacity, FEC parity packets are genuine
    Reed-Solomon shards over those payloads, and receivers reassemble
    entries from whatever mix of data and parity packets they caught.
    The end-to-end tests drive a lossy channel through this codec to
    show the symbolic and byte-level paths agree. *)

type t = {
  seq : int;  (** packet sequence number within the message *)
  block : int;  (** FEC block index *)
  index_in_block : int;  (** data shard index within the block *)
  payload : bytes;  (** serialized entries, exactly their encoded length *)
}

val encode_entries :
  ?wide:bool -> capacity_bytes:int -> Gkm_lkh.Rekey_msg.entry list -> t list
(** Pack entries into packets of at most [capacity_bytes] of payload.
    A payload is an unsigned LEB128 entry count followed by exactly
    that many entries, each five zigzag varints ([target_node],
    [target_version], [level], [wrapped_under], [receivers]), an
    unsigned varint ciphertext length and the ciphertext (see
    {!Gkm_crypto.Codec.add_varint}). Every int round-trips, so one
    layout serves every organization. Only a rekey's last packet is
    usually short of the capacity (block/index fields are filled by
    {!blocks_of_packets}). [?wide] is accepted and ignored; it remains
    only for callers written against the retired i64-id layout.
    @raise Invalid_argument if [capacity_bytes] is too small for a
    single entry. *)

val encode_payload : Gkm_lkh.Rekey_msg.entry list -> bytes
(** One payload holding all of [entries], whatever its length: the
    canonical bytes {!decode_payload} reads back ([encode_payload []]
    is the one-byte zero-entry payload). *)

val entry_size_of : Gkm_lkh.Rekey_msg.entry -> int
(** Encoded bytes of one entry: a payload is the count's
    {!Gkm_crypto.Codec.uvarint_size} plus the sum of these. *)

val min_capacity_bytes : int
(** The payload of one entry carrying a 32-byte wrap with every id
    at its widest (9-byte) varint, plus its count: a capacity of at
    least this packs any wrap-based rekey. *)

val decode_payload : bytes -> (Gkm_lkh.Rekey_msg.entry list, string) result
(** Recover the entries of one packet payload (ignoring trailing bytes,
    such as the zeros FEC recovery extends a short payload with).
    Accepts only canonical varints and never raises: overlong or
    over-63-bit varints, a count the bytes cannot hold, or truncation
    give [Error]. *)

val blocks_of_packets : block_size:int -> t list -> t list list
(** Group packets into FEC blocks of [block_size], renumbering
    [block]/[index_in_block]. @raise Invalid_argument if
    [block_size < 1]. *)

val parity_shards : t list -> nparity:int -> bytes list
(** Reed-Solomon parity shards over one block's payloads. Payloads may
    differ in length: each is zero-extended to the block's longest
    before coding, and every shard has that length. *)

val recover_block :
  k:int ->
  data:(int * bytes) list ->
  parity:(int * bytes) list ->
  (bytes list, string) result
(** [recover_block ~k ~data ~parity] reconstructs all [k] data
    payloads of a block from any [k] received shards; [data] carries
    [(index_in_block, payload)], [parity] carries
    [(parity_index, shard)]. Received payloads come back verbatim;
    recovered ones come back zero-extended to the block's longest
    payload, which {!decode_payload} reads unchanged. [Error] if fewer
    than [k] distinct shards arrived. *)
