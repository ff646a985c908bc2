module Key = Gkm_crypto.Key
module Aead = Gkm_crypto.Aead
module Hkdf = Gkm_crypto.Hkdf
module Pkg = Gkm_crypto.Pkg
module Labels = Gkm_crypto.Labels
module Sha256 = Gkm_crypto.Sha256
module Prng = Gkm_crypto.Prng
module Codec = Gkm_crypto.Codec

(* Both salts are constants, prepared once: an extract under either
   then costs the DEK's or individual key's compressions alone. *)
let record_salt = Pkg.Kdf.salt (Bytes.of_string Labels.record_salt)
let resume_salt = Pkg.Kdf.salt (Bytes.of_string Labels.resume_salt)
let traffic_info = Hkdf.label_info Labels.traffic []
let record_ad_label = "gkmrec2"
let ticket_ad = Bytes.of_string "gkmtkt2"
let resume_ad = Bytes.of_string "gkmrsm2"

module Epoch = struct
  type t = {
    mutable key : Aead.key option;
    mutable label : int;
    dek_digest : bytes;
  }

  let of_dek_digest ~dek ~digest ~label =
    let raw =
      Pkg.Kdf.derive ~salt:record_salt ~ikm:(Key.to_bytes dek) ~info:traffic_info Aead.key_size
    in
    let key = Aead.of_bytes raw in
    Bytes.fill raw 0 (Bytes.length raw) '\x00';
    { key = Some key; label; dek_digest = digest }

  let of_dek ~dek ~label = of_dek_digest ~dek ~digest:(Key.digest dek) ~label

  let label t = t.label
  let relabel t label = t.label <- label
  let same_digest t digest = Bytes.equal t.dek_digest digest
  let same_dek t dek = same_digest t (Key.digest dek)
  let erase t = t.key <- None
  let key t = t.key
end

(* Nonce: the sequence number big-endian, then 8 zero bytes that CTR
   counts a record's blocks in; AD: "gkmrec2" || seq. The traffic key
   depends on the DEK value alone. No two records under one key share
   a counter block, which CTR mode requires, only if each DEK value
   has one strictly increasing seq — across the DEK's returns too (one
   Seal per DEK value) — and no record reaches 2^64 blocks. *)
let nonce_of_seq seq =
  let n = Bytes.create Aead.nonce_size in
  Bytes.set_int64_be n 0 seq;
  Bytes.set_int64_be n 8 0L;
  n

let ad_of_seq seq =
  let n = String.length record_ad_label in
  let ad = Bytes.create (n + 8) in
  Bytes.blit_string record_ad_label 0 ad 0 n;
  Bytes.set_int64_be ad n seq;
  ad

(* Self-delimiting counter-nonce sealing: the counter as a seq64
   varint, then the AEAD output. For one-shot sealed blobs (tickets,
   rejoin acks) where the sender owns a monotonic counter and the
   receiver learns the nonce from the blob itself. The counter's
   encoding is canonical, so a blob has one spelling. *)
let counter_seal key ~n ~ad pt =
  let sealed = Aead.seal key ~nonce:(nonce_of_seq n) ~ad pt in
  let buf = Buffer.create (Codec.seq64_size n + Bytes.length sealed) in
  Codec.add_seq64 buf n;
  Buffer.add_bytes buf sealed;
  Buffer.to_bytes buf

let counter_open key ~ad blob =
  match
    Codec.parse blob (fun r ->
        let n = Codec.seq64 r in
        if Codec.remaining r < Aead.tag_size then Codec.corrupt "sealed blob too short";
        (n, Codec.rest r))
  with
  | Error e -> Error e
  | Ok (n, sealed) -> Aead.open_ key ~nonce:(nonce_of_seq n) ~ad sealed

module Seal = struct
  type t = { epoch : Epoch.t; mutable next : int64 }

  let create epoch = { epoch; next = 0L }
  let epoch t = t.epoch

  let seal t plaintext =
    match Epoch.key t.epoch with
    | None -> invalid_arg "Record.Seal.seal: epoch key erased"
    | Some key ->
        let seq = t.next in
        t.next <- Int64.succ seq;
        let ct = Aead.seal key ~nonce:(nonce_of_seq seq) ~ad:(ad_of_seq seq) plaintext in
        (seq, ct)
end

module Sink = struct
  let window_bits = 1024
  let window_bytes = window_bits / 8

  (* Classic sliding bitmap: [top] is the highest authenticated seq,
     bit [s land (window_bits-1)] records whether [s] was seen for any
     [s] in (top - window_bits, top]. Bits are only marked after the
     tag verifies, so a dropped-then-retransmitted frame still opens. *)
  type t = { epoch : Epoch.t; mutable top : int64; bits : Bytes.t }

  let create epoch = { epoch; top = -1L; bits = Bytes.make window_bytes '\x00' }
  let epoch t = t.epoch

  let bit_idx off = Int64.to_int (Int64.logand off (Int64.of_int (window_bits - 1)))

  let get_bit t off =
    let i = bit_idx off in
    Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

  let set_bit t off =
    let i = bit_idx off in
    Bytes.set t.bits (i / 8)
      (Char.chr (Char.code (Bytes.get t.bits (i / 8)) lor (1 lsl (i mod 8))))

  let clear_bit t off =
    let i = bit_idx off in
    Bytes.set t.bits (i / 8)
      (Char.chr (Char.code (Bytes.get t.bits (i / 8)) land lnot (1 lsl (i mod 8))))

  (* Would [off] be accepted? (No state change.) *)
  let admissible t off =
    if Int64.compare off t.top > 0 then true
    else
      let delta = Int64.sub t.top off in
      if Int64.compare delta (Int64.of_int window_bits) >= 0 then false
      else not (get_bit t off)

  let mark t off =
    if Int64.compare off t.top > 0 then begin
      (* Advance: clear the bits whose slots now refer to the skipped
         sequence numbers in (top, off). *)
      let adv = Int64.sub off t.top in
      if Int64.compare adv (Int64.of_int window_bits) >= 0 then
        Bytes.fill t.bits 0 window_bytes '\x00'
      else
        for i = 1 to Int64.to_int adv - 1 do
          clear_bit t (Int64.add t.top (Int64.of_int i))
        done;
      t.top <- off;
      set_bit t off
    end
    else set_bit t off

  (* A negative seq is refused before any MAC work: no sealer counts
     that far, so it can only be forged wire input. Otherwise
     authenticate FIRST, then consult the window. A frame sealed for
     a different generation must come back [`Auth] — not [`Replay] —
     so the caller can tell "not my keys (maybe ahead of me)" from
     "genuinely seen before": sequence numbers restart per generation,
     and a window consulted pre-auth would swallow a future
     generation's low seqs as replays. The extra MAC on a true replay
     is the price of that distinction. *)
  let peek t ~seq sealed =
    if Int64.compare seq 0L < 0 then Error `Auth
    else
      match Epoch.key t.epoch with
      | None -> Error `Auth
      | Some key -> (
          match Aead.verify key ~nonce:(nonce_of_seq seq) ~ad:(ad_of_seq seq) sealed with
          | Error _ -> Error `Auth
          | Ok o -> if admissible t seq then Ok o else Error `Replay)

  let accept t ~seq = mark t seq

  let open_ t ~seq sealed =
    let r = peek t ~seq sealed in
    if Result.is_ok r then accept t ~seq;
    Result.map Aead.plaintext r
end

module Ticket = struct
  type contents = {
    member : int;
    cls : [ `Short | `Long ];
    loss : float;
    issued_epoch : int;
    issued_rekey : int;
    path_digest : bytes;
  }

  let digest_size = 16

  let path_digest nodes =
    let buf = Buffer.create (8 * List.length nodes) in
    List.iter (fun id -> Codec.add_i64 buf (Int64.of_int id)) nodes;
    Bytes.sub (Sha256.digest (Buffer.to_bytes buf)) 0 digest_size

  let contents_size = 5 + 1 + 8 + 5 + 5 + digest_size

  let encode_contents c =
    let buf = Buffer.create contents_size in
    Codec.add_u31 buf c.member;
    Codec.add_u8 buf (match c.cls with `Short -> 0 | `Long -> 1);
    Codec.add_f64 buf c.loss;
    Codec.add_u31 buf c.issued_epoch;
    Codec.add_u31 buf c.issued_rekey;
    Buffer.add_bytes buf c.path_digest;
    Buffer.to_bytes buf

  let decode_contents b =
    Codec.parse b @@ fun r ->
    let member = Codec.u31 r in
    let cls =
      match Codec.u8 r with
      | 0 -> `Short
      | 1 -> `Long
      | _ -> Codec.corrupt "ticket contents: bad class"
    in
    let loss = Codec.f64 r in
    let issued_epoch = Codec.u31 r in
    let issued_rekey = Codec.u31 r in
    let path_digest = Codec.bytes r digest_size in
    { member; cls; loss; issued_epoch; issued_rekey; path_digest }

  module Sealer = struct
    type t = { key : Aead.key; mutable next_nonce : int64 }

    let create ~seed =
      let rng = Prng.create seed in
      { key = Aead.of_bytes (Prng.bytes rng Aead.key_size); next_nonce = 0L }

    (* Ticket blob: seq64 nonce counter || sealed contents. The nonce
       counter is server-local, so tickets from one server process
       never reuse a (key, nonce) pair. *)
    let issue t contents =
      let n = t.next_nonce in
      t.next_nonce <- Int64.succ n;
      counter_seal t.key ~n ~ad:ticket_ad (encode_contents contents)

    let open_ t blob =
      match counter_open t.key ~ad:ticket_ad blob with
      | Error e -> Error ("ticket: " ^ e)
      | Ok pt -> decode_contents pt
  end

  let resume_key ~individual ~issued_epoch =
    Aead.of_bytes
      (Pkg.Kdf.derive ~salt:resume_salt ~ikm:(Key.to_bytes individual)
         ~info:(Hkdf.label_info Labels.resume [ issued_epoch ])
         Aead.key_size)
end
