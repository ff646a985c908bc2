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
    Each payload is exactly as long as the entries it carries, so only
    a rekey's last packet is usually short of the capacity
    (block/index fields are filled by {!blocks_of_packets}). Entries
    larger than the capacity are rejected. With [~wide:true] node ids
    are encoded as i64, so composed organizations' banded ids survive;
    the default narrow codec (i32 ids, 8 bytes less per entry) rejects
    out-of-range ids.
    @raise Invalid_argument if [capacity_bytes] is too small for a
    single entry, or a node id overflows the narrow codec. *)

val decode_payload : bytes -> (Gkm_lkh.Rekey_msg.entry list, string) result
(** Recover the entries of one packet payload (ignoring trailing bytes,
    such as the zeros FEC recovery extends a short payload with).
    Auto-detects the wide codec by its sentinel header, so receivers
    need not know which codec the server chose. *)

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
