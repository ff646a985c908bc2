(** Datagram framing for the UDP multicast data plane.

    One datagram carries one rekey generation: every sealed record the
    tick domain produced for that interval, in sequence order, under a
    single epoch label. The records are byte-identical to the [ct] of
    the [Msg.Sealed] frames the TCP path delivers — the datagram is
    just a tighter envelope (the epoch is hoisted into the header and
    there is no per-record frame header), so a member may receive a
    generation over either transport and open it with the same
    {!Gkm_record.Record.Sink}.

    Layout (a 4-byte fixed header, big-endian, and the epoch label as
    a {!Gkm_crypto.Codec.add_u31} varint; then the records, each a
    {!Gkm_crypto.Codec.add_seq64} sequence number and a uvarint length
    before its bytes):
    {v
      u16 magic (0x474D)  u8 version  u8 count  u31 epoch
      count x ( seq64 seq | uvarint ct_len | ct )
    v}

    Datagrams arrive from an unauthenticated socket: {!decode} never
    raises, and anything it accepts satisfies the encode∘decode byte
    fixpoint (the conformance fuzzer holds it to both). Authenticity
    is the record layer's job — a forged or bit-flipped [ct] fails
    AEAD opening; the header fields are only routing hints. *)

type t = { epoch : int; records : (int64 * bytes) list }
(** [records] are [(seq, ct)] sealed records, ascending [seq]. *)

val max_records : int
(** 255 — the count is a u8. *)

val encoded_size : t -> int
(** Exactly the size {!encode} produces, without building it — the
    fits-in-one-datagram check for the TCP fallback decision. *)

val encode : t -> bytes
(** @raise Invalid_argument on more than {!max_records} records, or an
    epoch outside [[0, 2^31)]. *)

val decode : bytes -> (t, string) result
(** Never raises; rejects bad magic/version, a zero record count, an
    overlong or out-of-range varint, truncation and trailing bytes. *)
