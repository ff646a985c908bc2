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
(** Pack entries, in order, into packets of at most [capacity_bytes]
    of payload, each payload as {!encode_payload} writes it. Only a
    rekey's last packet is usually short of the capacity (block/index
    fields are filled by {!blocks_of_packets}). [?wide] is accepted
    and ignored; it remains only for callers written against the
    retired i64-id layout.
    @raise Invalid_argument if [capacity_bytes] is too small for an
    entry, or on a ciphertext that is no classical wrap. *)

val encode_payload : Gkm_lkh.Rekey_msg.entry list -> bytes
(** One payload holding all of [entries], whatever its length. A
    group is a maximal run of consecutive classical wraps (see
    {!Gkm_lkh.Rekey_msg.entry}) sharing [target_node],
    [target_version] and their last 16 bytes, the wrapped key's
    {!Gkm_crypto.Key.check}. A payload is an unsigned LEB128 group
    count, then every group's metadata, then every group's key
    material, both in group order, so that a member reads what it
    needs to choose its entries from the payload's front and decrypts
    only the key material it chooses.

    A group's metadata is the zigzag deltas of its target and version
    from the previous group's, one unsigned varint [count * 4 + kind]
    whose kind is always 0, then per entry the zigzag delta of
    [wrapped_under] (from the target for the first entry, from the
    previous entry's after). Its key material is the shared 16-byte
    check, then each entry's 16-byte encrypted block. Deltas start
    from (0, 0) in every payload, so each decodes alone, and wrap
    modulo 2^63, so every int round-trips (see
    {!Gkm_crypto.Codec.add_varint}). [level] and [receivers] are not
    written. [encode_payload []] is the one-byte zero-group payload.
    @raise Invalid_argument on a ciphertext of any length but
    {!Gkm_crypto.Key.wrapped_size}. *)

val min_capacity_bytes : int
(** The payload of one group holding one classical wrap with every
    delta at its widest (9-byte) varint, plus the group count (61 =
    1 + 3 x 9 + 1 + 16-byte check + 16-byte block): a capacity of at
    least this packs any rekey. *)

val decode_payload : bytes -> (Gkm_lkh.Rekey_msg.entry list, string) result
(** Recover the entries of one packet payload (ignoring trailing bytes,
    such as the zeros FEC recovery extends a short payload with), with
    [level] and [receivers] 0, and each entry's block joined again
    with its group's check: {!read_payload} selecting every entry.
    Accepts only what {!encode_payload} writes, so an accepted payload
    re-encodes to the bytes it read: overlong or over-63-bit varints,
    an empty group, a kind other than 0, a group with its
    predecessor's target, version and check, a count the bytes cannot
    hold, or truncation (of the key material included) give [Error].
    Never raises. *)

val read_payload :
  Gkm_crypto.Codec.reader ->
  select:(target:int -> version:int -> under:int -> bool) ->
  (Gkm_lkh.Rekey_msg.entry -> unit) ->
  unit
(** [read_payload r ~select f] is the payload decoder, over a cursor
    at a payload's first byte whose payload runs to the input's end.
    It reads the count and every group's metadata and checks the whole
    layout, the way {!decode_payload} does. Then, for each entry in
    order, it asks [select] of the entry's metadata (its target node
    and version, and the node it is wrapped under), and only when
    [select] answers [true] reads that entry's block and its group's
    check and passes [f] the whole entry, built once. Key material no
    entry selects is never read: over a record decrypted on demand
    ({!Gkm_crypto.Aead.parse}) it stays encrypted. [select] sees each
    entry after [f] has seen the ones before it, so it may depend on
    what [f] did with them. A payload {!decode_payload} refuses raises
    {!Gkm_crypto.Codec.Corrupt} before [select] is first called. *)

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
