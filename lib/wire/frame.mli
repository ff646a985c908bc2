(** Length-prefixed framing and streaming reassembly.

    Frame layout (big-endian):

    {v
    offset size field
    0      2    magic 0x474B ("GK")
    2      1    wire version ({!Msg.version})
    3      1    message type (Msg.tag)
    4      n    body length L, canonical uvarint (0 <= L <= max_frame)
    4+n    L    body (Msg.encode_body)
    v}

    The length takes one byte below 128 and three at the 1 MiB
    default bound. The decoder is stream-oriented: {!feed} it whatever
    the socket produced, then {!next} until it reports [Ok None] (more
    bytes needed). Any malformed input — bad magic, any version byte
    other than {!Msg.version}, a declared length beyond the bound or
    spelled overlong, an undecodable body — kills the stream
    permanently ([Error] from then on): framing errors are not
    recoverable mid-stream, the connection must be dropped. The
    version byte is the one version check of the protocol: a peer
    learns that it speaks another version from the first frame it
    sends, so nothing is negotiated. The
    declared-length check happens before any frame allocation, and a
    length whose bytes so far already exceed the bound fails at once,
    so a hostile peer cannot make the decoder allocate beyond
    [max_frame]. *)

val magic : int

val encode : ?version:int -> Msg.t -> bytes
(** One complete frame (header + body), ready to write. [version] is
    the header's version byte and defaults to {!Msg.version}, the only
    one {!next} accepts; passing another forges a foreign header
    (robustness tests). *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] bounds a frame body and defaults to 1 MiB.
    @raise Invalid_argument if [max_frame < 1]. *)

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d src off len] appends a received chunk.
    @raise Invalid_argument on an invalid slice. *)

type error =
  | Version of int
      (** a header carried this version byte, not {!Msg.version}: the
          peer speaks another version (the server answers
          [err_version]) *)
  | Corrupt of string  (** anything else {!next} refuses *)

val error_message : error -> string

val next : decoder -> (Msg.t option, error) result
(** Surface the next complete message: [Ok None] when more bytes are
    needed, [Error] when the stream is refused (sticky). A version byte
    is checked before the body length. Never raises on malformed
    input. *)

val buffered : decoder -> int
(** Bytes currently awaiting a complete frame. *)

val decode_datagram : bytes -> ((int * int64 * bytes) list, string) result
(** The [(epoch, seq, ct)] records of a multicast datagram: one or more
    complete [Sealed] frames, nothing between or after them, so a
    generation goes out as the frames the TCP fan-out writes for it.
    [Error] on an empty datagram, a trailing partial frame, any message
    other than [Sealed] (the whole datagram is refused) and anything
    {!next} refuses. Never raises. *)

(** {1 Protocol helpers} *)

val resync_auth : key:Gkm_crypto.Key.t -> member:int -> epoch:int -> bytes
(** The [Resync_req.auth] tag: HMAC-SHA-256 under the member's
    individual key over ["gkm-resync-v1"], the member id and the
    claimed epoch — proof of membership for a reconnecting client
    whose connection is not yet bound to a member. *)
