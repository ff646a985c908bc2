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

let open_ key ~nonce ~ad sealed =
  if Bytes.length nonce <> nonce_size then Error "bad nonce size"
  else if Bytes.length ad > 0xFFFF then Error "ad too long"
  else
    let n = Bytes.length sealed - tag_size in
    if n < 0 then Error "sealed input shorter than tag"
    else if tag_matches sealed ~at:n (tag_of key ~nonce ~ad sealed 0 n) then
      Ok (Pkg.Cipher.ctr_transform key.enc ~nonce (Bytes.sub sealed 0 n))
    else Error "auth failure"
