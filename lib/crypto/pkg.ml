module type CIPHER = sig
  type schedule

  val expand : bytes -> schedule
  val encrypt_block : schedule -> bytes -> bytes
  val decrypt_block : schedule -> bytes -> bytes
  val ctr_transform : schedule -> nonce:bytes -> bytes -> bytes
  val ctr_blocks :
    schedule -> nonce:bytes -> len:int -> first:int -> count:int -> bytes -> bytes -> unit
end

module type KDF = sig
  type salt

  val salt : bytes -> salt
  val prf : key:bytes -> bytes -> bytes
  val derive : salt:salt -> ikm:bytes -> info:bytes -> int -> bytes
end

module Cipher : CIPHER = struct
  type schedule = Aes128.key

  let expand = Aes128.expand
  let encrypt_block = Aes128.encrypt_block
  let decrypt_block = Aes128.decrypt_block
  let ctr_transform = Aes128.ctr_transform
  let ctr_blocks = Aes128.ctr_blocks
end

module Kdf : KDF = struct
  type salt = Hmac.key

  let salt = Hmac.prepare
  let prf ~key msg = Hmac.mac ~key msg
  let derive = Hkdf.derive
end
