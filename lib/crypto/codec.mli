(** The one byte codec: big-endian writers into a [Buffer.t] and a
    bounds-checked cursor to read them back.

    Wire messages, multicast datagrams, packet payloads, tickets,
    resumption blobs and every crash-recovery snapshot (key trees,
    servers, organizations) are written with the [add_*] family and
    decoded by a function run under {!parse}. Every cursor read checks
    availability before touching the buffer, so a decoder fed
    arbitrary bytes can only return [Error]: it never raises, and it
    allocates at most what the input's own size can pay for. *)

(** {1 Writers} *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
(** @raise Invalid_argument if the value exceeds 16 bits. *)

val add_i32 : Buffer.t -> int -> unit
(** @raise Invalid_argument if the value exceeds 32 signed bits. *)

val add_i64 : Buffer.t -> int64 -> unit

val add_f64 : Buffer.t -> float -> unit
(** IEEE-754 bit pattern as i64. *)

val add_key : Buffer.t -> Key.t -> unit
(** Raw 16-byte key material: seal a snapshot that carries it before
    persisting, and never put it on the wire in the clear. *)

val add_var16 : Buffer.t -> bytes -> unit
(** u16 length prefix then the bytes. *)

val add_var32 : Buffer.t -> bytes -> unit
(** i32 length prefix then the bytes. *)

val add_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
(** Presence byte (0 or 1) then the payload. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** i32 count then the items. *)

val add_uvarint : Buffer.t -> int -> unit
(** Unsigned LEB128: 7 bits a byte, low group first, high bit set on
    every byte but the last; 1 byte below 128, at most 9.
    @raise Invalid_argument on a negative value. *)

val add_varint : Buffer.t -> int -> unit
(** Any int, zigzag-mapped ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...])
    and then written as {!add_uvarint} over all 63 bits, so small
    magnitudes of either sign are short and [min_int]/[max_int] take
    9 bytes. *)

val add_uvarint_max : Buffer.t -> max:int -> int -> unit
(** {!add_uvarint} of a value in [[0, max]], for a field whose range is
    narrower than an int. @raise Invalid_argument outside it. *)

val add_u31 : Buffer.t -> int -> unit
(** {!add_uvarint_max} up to [0x7FFF_FFFF]: member ids, epochs and
    counters keep the range of the i32 fields they replaced on the
    wire (snapshots and the client's resumption blob still store them
    as i32). 1 to 5 bytes. *)

val add_vlist : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** {!add_uvarint} count then the items. *)

val add_seq64 : Buffer.t -> int64 -> unit
(** A 64-bit record sequence number as canonical unsigned LEB128 over
    all 64 bits: 1 byte below 128, 2 below 16384; every [int64] takes
    at most 10 bytes (a negative one, which no sealer produces, all 10). *)

val uvarint_size : int -> int
(** Bytes {!add_uvarint} writes for a non-negative value. *)

val varint_size : int -> int
(** Bytes {!add_varint} writes for a value. *)

val seq64_size : int64 -> int
(** Bytes {!add_seq64} writes for a value. *)

(** {1 Reader} *)

type reader

exception Corrupt of string
(** Raised by the cursor reads on truncation, and by {!corrupt} for
    semantic errors. Caught by {!parse}. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

val remaining : reader -> int

val pos : reader -> int
(** The offset in the input of the next byte the cursor reads. *)

val skip : reader -> int -> unit
(** [skip r n] moves past [n] bytes without reading them, so a cursor
    over a record decrypted on demand ({!parse_from}) decrypts none of
    them. Truncation is {!Corrupt}. *)

val bytes_at : reader -> int -> int -> bytes
(** [bytes_at r off n] is bytes [[off, off + n)] of the input, wherever
    the cursor stands, which it does not move; a range outside the
    input is {!Corrupt}. *)

val blit_at : reader -> int -> bytes -> int -> int -> unit
(** [blit_at r off dst dst_off n] copies what [bytes_at r off n] would
    return into [dst] at [dst_off], without allocating. *)

val magic : reader -> string -> unit
(** Consume and check a fixed tag. *)

val u8 : reader -> int
val u16 : reader -> int
val i32 : reader -> int
(** Sign-extending. *)

val i64 : reader -> int64
val f64 : reader -> float

val uvarint : reader -> int
(** Reads {!add_uvarint}'s encoding. Only the canonical (shortest)
    encoding is accepted: a zero last byte after the first, a 10th
    byte, or a value above [max_int] is {!Corrupt}. *)

val varint : reader -> int
(** Reads {!add_varint}'s encoding, canonical only as {!uvarint}; every
    9-byte pattern is some int. *)

val uvarint_max : reader -> max:int -> int
(** {!uvarint} whose value above [max] is {!Corrupt}. *)

val u31 : reader -> int
(** Reads {!add_u31}'s encoding. *)

val seq64 : reader -> int64
(** Reads {!add_seq64}'s encoding. Canonical only: a zero last byte
    after the first, a 10th byte other than 1, or an 11th byte is
    {!Corrupt}, so each [int64] has exactly one spelling. *)

val bytes : reader -> int -> bytes
val key : reader -> Key.t
val var16 : reader -> bytes
val var32 : reader -> bytes
(** A negative length is {!Corrupt}. *)

val rest : reader -> bytes
(** Everything left: a trailing byte string takes the rest of its
    container and carries no length. *)

val opt : reader -> (reader -> 'a) -> 'a option
(** Any presence byte other than 0 or 1 is {!Corrupt}. *)

val items : reader -> min_item_size:int -> int -> (reader -> 'a) -> 'a list
(** [items r ~min_item_size n item] reads [n] items, left to right,
    for formats whose count is not stored just before them. A count
    that cannot fit in the remaining bytes at [min_item_size] bytes an
    item (or a negative one) is rejected before any item is read, so
    a hostile count allocates nothing. *)

val list16 : reader -> min_item_size:int -> (reader -> 'a) -> 'a list
(** u16 count then {!items}. *)

val vlist : reader -> min_item_size:int -> (reader -> 'a) -> 'a list
(** {!uvarint} count then {!items}. *)

val list : reader -> min_item_size:int -> (reader -> 'a) -> 'a list
(** i32 count then {!items}. *)

val parse : bytes -> (reader -> 'a) -> ('a, string) result
(** Run a decoder over the whole of [bytes]. [Error] on truncation,
    a {!corrupt}, an [Invalid_argument] from a constructor the decoder
    calls, or bytes left unread once it returns. Never raises those. *)

val parse_from :
  bytes -> off:int -> reveal:(int -> int -> unit) -> (reader -> 'a) -> ('a, string) result
(** {!parse} of bytes [[off, length)] of a buffer that holds valid
    bytes only where [reveal] has made them so: every read of bytes
    [[o, o + n)] first calls [reveal o n] ({!skip} calls nothing). The
    cursor's offsets ({!pos}, {!bytes_at}) count from the buffer's
    start. @raise Invalid_argument if [off] lies outside the buffer. *)
