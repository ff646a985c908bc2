(** Epoch-sealed record layer: authenticated, replay-protected frames
    keyed per DEK generation, plus the resumption-ticket machinery for
    0-RTT rejoin.

    Traffic keys are derived from the group DEK {e value} — never from
    the epoch label, which can skew between server and client across
    zero-entry rekeys — via HKDF, and held in an {!Epoch} package that
    is erased when the group moves on (forward secrecy hygiene: a later
    compromise of the process can't decrypt recorded earlier epochs
    from the package alone). On the sending side a {!Seal} stamps each
    record with a strictly increasing explicit 64-bit sequence number;
    on the receiving side a {!Sink} enforces a 1024-entry sliding
    replay window, marking a sequence number as seen {e only after}
    its tag verifies so that retransmits of genuinely lost frames
    still open. *)

module Epoch : sig
  type t
  (** A per-DEK-generation key package (the miTLS [Pkg] shape: an
      indexed keyed functionality with erase-on-bump). *)

  val of_dek : dek:Gkm_crypto.Key.t -> label:int -> t
  (** Derive the traffic key from the DEK value. [label] is the epoch
      number used for wire routing hints; it does not enter the key
      derivation. *)

  val of_dek_digest : dek:Gkm_crypto.Key.t -> digest:bytes -> label:int -> t
  (** {!of_dek} for a caller that already holds
      [digest = Gkm_crypto.Key.digest dek] (to log the DEK's
      fingerprint, say), so the DEK is hashed once per generation. *)

  val label : t -> int
  val relabel : t -> int -> unit
  (** Update the routing label without touching key material — for
      epochs whose DEK survived a rekey (zero-entry rekeys at the
      server never change the DEK while members remain). *)

  val same_dek : t -> Gkm_crypto.Key.t -> bool
  (** Does this package belong to the given DEK? Compares full 32-byte
      {!Gkm_crypto.Key.digest}s; the package does not retain the DEK
      itself. (The 8-hex fingerprint is for logs only: two keys of one
      long-lived group share one.) *)

  val same_digest : t -> bytes -> bool
  (** [same_digest t (Gkm_crypto.Key.digest dek)] is [same_dek t dek]. *)

  val erase : t -> unit
  (** Drop the key material: the AES schedule and the prepared MAC
      state, which is as good as the MAC key. Subsequent opens fail
      with [`Auth]; subsequent seals raise. *)
end

val resume_ad : bytes
(** Associated data binding REJOIN_ACK blobs ("gkmrsm2"). *)

val counter_seal : Gkm_crypto.Aead.key -> n:int64 -> ad:bytes -> bytes -> bytes
(** [counter_seal key ~n ~ad pt] is the self-delimiting blob
    [seq64 n || ciphertext || tag], [n] spelled by
    {!Gkm_crypto.Codec.add_seq64} (1 byte below 128). The caller owns
    [n]'s monotonicity per key. *)

val counter_open : Gkm_crypto.Aead.key -> ad:bytes -> bytes -> (bytes, string) result
(** Inverse of {!counter_seal}; never raises on untrusted input, and
    refuses a non-canonical spelling of [n]. *)

module Seal : sig
  type t

  val create : Epoch.t -> t
  (** A fresh sealer, whose first record takes sequence number 0.
      Create at most one sealer per DEK value: a DEK can become the
      group key again after others, and a second sealer for it would
      restart the CTR nonce sequence. *)

  val epoch : t -> Epoch.t

  val seal : t -> bytes -> int64 * bytes
  (** [seal t plaintext] is [(seq, ciphertext || tag)].
      @raise Invalid_argument if the epoch was erased. *)
end

module Sink : sig
  type t

  val create : Epoch.t -> t
  (** A fresh sink with an empty 1024-record replay window. Create one
      per key generation, alongside the epoch. *)

  val epoch : t -> Epoch.t

  val open_ : t -> seq:int64 -> bytes -> (bytes, [ `Auth | `Replay ]) result
  (** Verify and decrypt one record: {!peek}, {!accept}, then
      {!Gkm_crypto.Aead.plaintext}. [`Auth] — the tag failed or the
      epoch was erased: not sealed under this generation's keys, so
      possibly a frame from a generation ahead of this sink. A
      negative [seq] is [`Auth] before any MAC work, since no sealer
      produces one. [`Replay] — the tag verified but the sequence
      number was already accepted or fell behind the window. The sink
      counts neither; its caller does. Authentication runs {e before}
      the window check — sequence numbers restart per generation, so a
      pre-auth window would misread a future generation's low seqs as
      replays. Never raises on untrusted input; the window only
      advances on success. *)

  val peek :
    t -> seq:int64 -> bytes -> (Gkm_crypto.Aead.opened, [ `Auth | `Replay ]) result
  (** The first step of {!open_}: one MAC over the whole record and the
      window check, with nothing decrypted and [seq] not marked. The
      receiver then decrypts only the byte ranges it reads
      ({!Gkm_crypto.Aead.parse}), and the record opens again until
      {!accept} marks it: a receiver that decides only after reading a
      record whether it counts as received (a simulated loss) leaves a
      later copy of a record it declined free of the replay check. *)

  val accept : t -> seq:int64 -> unit
  (** Mark [seq] in the window. Call it only for a [seq] that {!peek}
      has just returned [Ok] for. *)
end

module Ticket : sig
  type contents = {
    member : int;
    cls : [ `Short | `Long ];
    loss : float;
    issued_epoch : int;
    issued_rekey : int;
    path_digest : bytes;  (** 16 bytes; see {!path_digest}. *)
  }
  (** What a ticket seals. The live server reads back only [member]
      and [issued_epoch] (the resume key's input): a ticket names its
      member and never goes stale. The server no longer reads [cls],
      [loss], [issued_rekey] or [path_digest], and no longer computes
      the digest: it mints tickets with constant [cls] and [loss] and
      a zero [path_digest]. The fields stay in the codec while
      [perfbench]'s copy of the rejoin still builds them. *)

  val path_digest : int list -> bytes
  (** 16-byte digest (SHA-256 truncated) of a key-tree path given as
      node ids (leaf-first, DEK node last, as [member_path] returns
      them). The live server neither computes nor compares it: whether
      delta keys suffice is decided from its own state (DESIGN.md
      Section 13.3). *)

  module Sealer : sig
    type t
    (** The server-local ticket sealing key. Tickets are opaque to
        clients; only the issuing server can open them. *)

    val create : seed:int -> t

    val issue : t -> contents -> bytes
    (** An opaque ticket blob (nonce counter || AEAD-sealed contents). *)

    val open_ : t -> bytes -> (contents, string) result
    (** Never raises on untrusted input. *)
  end

  val resume_key : individual:Gkm_crypto.Key.t -> issued_epoch:int -> Gkm_crypto.Aead.key
  (** The key protecting the REJOIN_ACK for a ticket issued at
      [issued_epoch], derived from the member's individual key. Both
      ends can compute it; possession proves the server knows the
      individual key (authenticating the server to the rejoiner) and
      keeps the delta keys confidential. *)
end
