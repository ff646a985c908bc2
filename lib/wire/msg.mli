(** The rekey-serving protocol surface, wire version 2 — the only
    version.

    One constructor per message type. A server tick fans the interval
    rekey out as a run of [Rekey] messages (one {!Gkm_transport.Packet}
    each), every one sealed by the record layer into a [Sealed] frame;
    [Rekey] never travels in the clear. Receivers detect sequence gaps
    and [Nack] them; the server answers by resending the very [Sealed]
    frames of the original fan-out, or falls back to the
    [Resync_req]/[Resync] catch-up handshake (the wire form of
    {!Gkm_transport.Resync}) when it no longer holds the missed
    interval. [Resync] is the one key-path unicast: it also admits a
    joiner (at the tick that admits it, with the member's first
    resumption ticket — the wire form of the out-of-band registration
    unicast) and carries a migrated member's new path. A client's
    first frame is its request itself ([Join], [Rejoin] or
    [Resync_req]): every frame header carries the version byte, so
    there is nothing to negotiate.

    Bodies follow one codec rule: ids, epochs (SEALED's epoch label
    included), counters and counts are canonical LEB128 varints (node
    ids zigzag, record seqs {!Gkm_crypto.Codec.add_seq64}); keys, tokens
    and JOIN's loss keep their fixed width; a trailing byte string
    takes the rest of the body with no length prefix. Frame layout and
    field tables are documented in DESIGN.md Section 12; framing
    (header, length prefix, streaming reassembly) lives in {!Frame}. *)

val version : int
(** The wire version (2): the epoch-sealed record layer (SEALED),
    resumption tickets (REJOIN/REJOIN_ACK) and varint bodies and
    packet entries. A frame carrying any other version byte is
    refused ({!Frame.Version}); the server answers it with
    [err_version] and closes. *)

type cls = [ `Short | `Long ]
(** Duration class reported at join (the two-partition placement
    signal). *)

type rekey = {
  rekey_no : int;  (** dense rekey sequence number, no holes *)
  org : int;
      (** organization family id: 0 one-keytree, 1 qt, 2 tt, 3 pt,
          4 loss, 5 random, 6 composed *)
  epoch : int;  (** key-tree epoch of the rekey message *)
  root : int;  (** node id carrying the group DEK *)
  seq : int;  (** packet index within this rekey, [0 .. total-1] *)
  total : int;  (** packets in this rekey *)
  packet : Gkm_transport.Packet.t;
}

type path = (int * Gkm_crypto.Key.t) list
(** Catch-up key path, leaf first — [Organization.member_path] on the
    wire. Raw key material: the TCP connection stands in for the
    secure registration unicast of the model. *)

(* Tags 1, 2 and 4 are reserved (the retired HELLO, HELLO_ACK and
   JOIN_ACK): a frame carrying one is refused as an unknown type. *)
type t =
  | Join of { cls : cls; loss : float }
  | Rekey of rekey
  | Nack of { rekey_no : int; seqs : int list }
      (** missing packet seqs; an empty list means the whole rekey *)
  (* Tag 7 is reserved (the retired RETX): a frame carrying it is
     refused as an unknown type. *)
  | Resync_req of { member : int; epoch : int; auth : bytes }
      (** [auth] is HMAC-SHA-256 under the member's individual key;
          see {!Frame.resync_auth} *)
  | Resync of {
      member : int;
      rekey_no : int;
      epoch : int;
      root : int;
      path : path;
      ticket : bytes;
          (** the member's resumption ticket, issued at [epoch], on an
              admission or a recovery resync; empty for a
              server-initiated migration, whose member keeps its
              ticket. A ticket names the member and never goes stale;
              the client presents it in every later [Rejoin]. *)
    }
  | Leave of { member : int }
  | Ping of { token : int64 }
  | Pong of { token : int64 }
  | Error_msg of { code : int; detail : string }
  | Sealed of { epoch : int; seq : int64; ct : bytes }
      (** One record-layer frame. [epoch] is an {e unauthenticated}
          routing hint naming the key generation; [seq] is the explicit
          record sequence number (any [int64] on the wire; no sealer
          produces a negative one, and a sink refuses it); [ct] is
          the AEAD output covering an inner [tag || body] plaintext. *)
  (* Tag 15 is reserved (the retired TICKET, which reissued tickets
     to connected members): a frame carrying it is refused as an
     unknown type. *)
  | Rejoin of { have_epoch : int; have_state : bool; ticket : bytes }
      (** 0-RTT re-entry. [have_epoch] is the last epoch whose keys
          the client still holds; [have_state] is false when the member
          state was lost (cross-process resume) and a full path is
          needed. [ticket] is opaque to the client (sealed under the
          server's ticket key); the [issued_epoch] the client stored
          with it derives the REJOIN_ACK key. *)
  | Rejoin_ack of { member : int; ct : bytes }
      (** [ct] seals a {!resume} body under
          {!Gkm_record.Record.Ticket.resume_key} — it authenticates the
          server and keeps the delta keys off the wire in the clear. *)

(** [Error_msg] codes. A client treats a code it does not know as a
    generic error. *)

val err_version : int
val err_protocol : int
val err_evicted : int
val err_auth : int

(* 5 is reserved: never assign it. *)

val err_ticket : int
(** Ticket rejected: it does not open under the server's ticket key
    (corrupt, or sealed by another server). Tickets do not expire.
    Soft: the connection stays up so the client can fall back to
    RESYNC. *)

val tag : t -> int
(** Wire type byte of a message. *)

val tag_name : int -> string
(** Human-readable name of a type byte (diagnostics). *)

val encode_body : Buffer.t -> t -> unit
(** Append the body encoding (everything after the frame header).
    @raise Invalid_argument if a field exceeds its encoding range:
    member ids, epochs and rekey numbers must lie in [[0, 2^31)],
    packet indices in [[0, 2^16)]. *)

val decode_body : tag:int -> bytes -> (t, string) result
(** Decode one frame body. Never raises: arbitrary bytes yield
    [Error], and allocation is bounded by the body size. *)

val pp_kind : Format.formatter -> t -> unit

(** {1 Sealed-record inner codec} *)

val encode_inner : t -> bytes
(** [u8 tag || body] — the plaintext sealed into a [Sealed] record. *)

val decode_inner : bytes -> (t, string) result
(** Inverse of {!encode_inner}; never raises. *)

val decode_inner_head : Gkm_crypto.Aead.opened -> (t * int, string) result
(** {!decode_inner} of a record opened by range, reading a REKEY only
    up to its packet payload: the message with an empty
    payload, and the offset in the plaintext at which the payload
    starts ({!Gkm_transport.Packet.read_payload} reads it from there).
    Only the counter blocks under the tag and the rekey fields are
    decrypted. Any other message decodes whole, its offset the
    plaintext's length. Never raises. *)

(** {1 REJOIN_ACK resume body} *)

type resume = {
  full : bool;  (** [path] is the complete entitled path, not a delta *)
  rekey_no : int;
  epoch : int;
  root : int;
  path : path;
  ticket : bytes;
      (** always empty: a ticket never goes stale, so the server never
          replaces the presented one, and the client ignores this
          field. It stays on the wire while [perfbench]'s copy of
          the rejoin still builds it. *)
}

val encode_resume : resume -> bytes
val decode_resume : bytes -> (resume, string) result
