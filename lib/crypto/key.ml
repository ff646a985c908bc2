type t = bytes

let size = 16

let of_bytes b =
  if Bytes.length b <> size then invalid_arg "Key.of_bytes: keys are 16 bytes";
  Bytes.copy b

let to_bytes k = Bytes.copy k
let fresh rng = Prng.bytes rng size

let equal = Bytes.equal
let wrapped_size = 32
let check_size = 16

let check k =
  let h = Sha256.init () in
  Sha256.update_string h Labels.key_check;
  Sha256.update h k;
  Bytes.sub (Sha256.finalize h) 0 check_size

type cipher = Pkg.Cipher.schedule

let cipher = Pkg.Cipher.expand

let wrap_checked_with cipher ~check k =
  let out = Bytes.create wrapped_size in
  Bytes.blit (Pkg.Cipher.encrypt_block cipher k) 0 out 0 size;
  Bytes.blit check 0 out size check_size;
  out

let wrap_with cipher k = wrap_checked_with cipher ~check:(check k) k

let unwrap_with cipher c =
  if Bytes.length c <> wrapped_size then
    invalid_arg "Key.unwrap: a wrapped key is one block and a check";
  (* Under a wrong KEK, or with the block or the check damaged, the
     decrypted key's check differs from the carried one but for a
     2^-128 chance. *)
  let k = Pkg.Cipher.decrypt_block cipher (Bytes.sub c 0 size) in
  if Bytes.equal (check k) (Bytes.sub c size check_size) then Some k else None

let wrap ~kek k = wrap_with (cipher kek) k

let digest k = Sha256.digest k
let fingerprint_of_digest d = Hex.encode (Bytes.sub d 0 4)
let fingerprint k = fingerprint_of_digest (digest k)

let pp fmt k = Format.fprintf fmt "key:%s" (fingerprint k)
