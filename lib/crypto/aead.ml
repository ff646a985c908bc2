type key = { enc : Pkg.Cipher.schedule; mac : Hmac.key }

let key_size = 32
let nonce_size = 16
let tag_size = 16

let of_bytes raw =
  if Bytes.length raw <> key_size then
    invalid_arg "Aead.of_bytes: key must be 32 bytes";
  { enc = Pkg.Cipher.expand (Bytes.sub raw 0 16); mac = Hmac.prepare (Bytes.sub raw 16 16) }

(* MAC input: u16 |ad| || ad || nonce || ct, where ct is the slice
   [off, off + len) of [b]. Length-prefixing [ad] keeps the
   (ad, nonce || ct) split unambiguous. Each part is hashed where it
   lies; the 32-byte HMAC is returned and callers use its first
   [tag_size] bytes. *)
let tag_of { mac; _ } ~nonce ~ad b off len =
  let ad_len = Bytes.create 2 in
  Bytes.set_uint16_be ad_len 0 (Bytes.length ad);
  Hmac.apply mac
    [ (ad_len, 0, 2); (ad, 0, Bytes.length ad); (nonce, 0, nonce_size); (b, off, len) ]

let seal key ~nonce ~ad plaintext =
  if Bytes.length nonce <> nonce_size then
    invalid_arg "Aead.seal: nonce must be 16 bytes";
  if Bytes.length ad > 0xFFFF then invalid_arg "Aead.seal: ad too long";
  let ct = Pkg.Cipher.ctr_transform key.enc ~nonce plaintext in
  let n = Bytes.length ct in
  let out = Bytes.create (n + tag_size) in
  Bytes.blit ct 0 out 0 n;
  Bytes.blit (tag_of key ~nonce ~ad ct 0 n) 0 out n tag_size;
  out

(* Does the tag stored at [sealed.[at]] equal the first [tag_size]
   bytes of [expected]? The comparison must not short-circuit. *)
let tag_matches sealed ~at expected =
  let acc = ref 0 in
  for i = 0 to tag_size - 1 do
    acc := !acc lor (Bytes.get_uint8 sealed (at + i) lxor Bytes.get_uint8 expected i)
  done;
  !acc = 0

(* A verified record decrypted on demand: counter block [i] covers
   plaintext bytes [16i, 16i + 16); bit [i] of [done_] says whether
   [plain] holds them yet. [sealed] and [nonce] are the caller's, kept
   unchanged. *)
type opened = {
  enc : Pkg.Cipher.schedule;
  nonce : bytes;
  sealed : bytes;
  plain : bytes;
  done_ : Bytes.t;
  mutable decrypted : int;
}

let verify key ~nonce ~ad sealed =
  if Bytes.length nonce <> nonce_size then Error "bad nonce size"
  else if Bytes.length ad > 0xFFFF then Error "ad too long"
  else
    let n = Bytes.length sealed - tag_size in
    if n < 0 then Error "sealed input shorter than tag"
    else if tag_matches sealed ~at:n (tag_of key ~nonce ~ad sealed 0 n) then
      Ok
        {
          enc = key.enc;
          nonce;
          sealed;
          plain = Bytes.create n;
          done_ = Bytes.make ((n + 127) / 128) '\000';
          decrypted = 0;
        }
    else Error "auth failure"

let length o = Bytes.length o.plain
let blocks o = (length o + 15) / 16
let blocks_decrypted o = o.decrypted

let is_done o i = Bytes.get_uint8 o.done_ (i lsr 3) land (1 lsl (i land 7)) <> 0

let mark o i =
  Bytes.set_uint8 o.done_ (i lsr 3) (Bytes.get_uint8 o.done_ (i lsr 3) lor (1 lsl (i land 7)))

(* Mark the run of not yet decrypted blocks from [i] to at most [last]
   and return the block after it. *)
let rec run_end o i last =
  if i > last || is_done o i then i
  else begin
    mark o i;
    run_end o (i + 1) last
  end

(* Decrypt blocks [i, last] that no earlier read decrypted, each run of
   them in one CTR call. *)
let rec reveal_blocks o i last =
  if i <= last then
    if is_done o i then reveal_blocks o (i + 1) last
    else begin
      let j = run_end o i last in
      Pkg.Cipher.ctr_blocks o.enc ~nonce:o.nonce ~len:(length o) ~first:i ~count:(j - i) o.sealed
        o.plain;
      o.decrypted <- o.decrypted + (j - i);
      reveal_blocks o j last
    end

let reveal o off len = if len > 0 then reveal_blocks o (off / 16) ((off + len - 1) / 16)

let plaintext o =
  reveal o 0 (length o);
  o.plain

let parse o ~off decode = Codec.parse_from o.plain ~off ~reveal:(reveal o) decode

let open_ key ~nonce ~ad sealed = Result.map plaintext (verify key ~nonce ~ad sealed)
