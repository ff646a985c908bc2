module type CIPHER = sig
  type schedule

  val expand : bytes -> schedule
  val encrypt_block : schedule -> bytes -> bytes
  val decrypt_block : schedule -> bytes -> bytes
  val ctr_transform : schedule -> nonce:bytes -> bytes -> bytes
end

module type KDF = sig
  val prf : key:bytes -> bytes -> bytes
  val extract : salt:bytes -> ikm:bytes -> bytes
  val expand : prk:bytes -> info:bytes -> int -> bytes
  val derive : salt:bytes -> ikm:bytes -> info:bytes -> int -> bytes
end

module Cipher : CIPHER = struct
  type schedule = Aes128.key

  let expand = Aes128.expand
  let encrypt_block = Aes128.encrypt_block
  let decrypt_block = Aes128.decrypt_block
  let ctr_transform = Aes128.ctr_transform
end

module Kdf : KDF = struct
  let prf ~key msg = Hmac.mac ~key msg
  let extract = Hkdf.extract
  let expand = Hkdf.expand
  let derive = Hkdf.derive
end
