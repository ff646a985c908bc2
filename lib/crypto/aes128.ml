(* AES-128 per FIPS 197. A key schedule keeps the 44 forward round-key
   words packed big-endian in one 176-byte [bytes], word [4*r + c]
   holding column c of round key r with row 0 in its first byte, so
   byte [16*r + i] is the round-key byte for state byte i. The forward
   cipher is byte-oriented (S-box table, explicit MixColumns over
   GF(2^8)). The inverse cipher is the equivalent inverse cipher of
   FIPS 197 §5.3.5, one round being 16 lookups into the Td0..Td3 tables
   over the InvMixColumns'd round keys of [dec]; those are derived from
   [enc] on a schedule's first decryption, so a schedule that only ever
   encrypts (every one the key server caches) never holds them. *)

let sbox =
  [|
    0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
    0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
    0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
    0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
    0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
    0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
    0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
    0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
    0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
    0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
    0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
    0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
    0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
    0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
    0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
    0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
    0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
    0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
    0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
    0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
    0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
    0xb0; 0x54; 0xbb; 0x16;
  |]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

type key = {
  enc : bytes;  (** 44 big-endian words: round key r is bytes 16r..16r+15 *)
  dec : int array Atomic.t;
      (** [[||]] until the first {!decrypt_block}, then the equivalent
          inverse cipher's 44 round-key words. Atomic so that a domain
          reading a built array also sees its words. *)
}

(* GF(2^8) multiply by x (i.e., {02}) modulo x^8+x^4+x^3+x+1. *)
let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

(* Td0.(x) is the InvMixColumns column of inv_sbox.(x) in row 0:
   {0e}s, {09}s, {0d}s, {0b}s from the top byte down. Td1..Td3 are its
   byte rotations, for rows 1..3. *)
let td0 =
  Array.init 256 (fun x ->
      let s = inv_sbox.(x) in
      (gmul s 14 lsl 24) lor (gmul s 9 lsl 16) lor (gmul s 13 lsl 8) lor gmul s 11)

let rotr8 w = (w lsr 8) lor ((w land 0xff) lsl 24)
let td1 = Array.map rotr8 td0
let td2 = Array.map rotr8 td1
let td3 = Array.map rotr8 td2

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

(* InvMixColumns of one column: td*.(sbox.(b)) is InvMixColumns of b. *)
let inv_mix_word w =
  td0.(sbox.(w lsr 24))
  lxor td1.(sbox.((w lsr 16) land 0xff))
  lxor td2.(sbox.((w lsr 8) land 0xff))
  lxor td3.(sbox.(w land 0xff))

let get_word b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff
let set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)

let expand raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes";
  let enc = Bytes.create 176 in
  Bytes.blit raw 0 enc 0 16;
  for i = 4 to 43 do
    let tmp = get_word enc (4 * (i - 1)) in
    let tmp =
      if i mod 4 = 0 then
        (* SubWord (RotWord tmp) xor Rcon *)
        sub_word (((tmp lsl 8) land 0xffff_ffff) lor (tmp lsr 24))
        lxor (rcon.((i / 4) - 1) lsl 24)
      else tmp
    in
    set_word enc (4 * i) (get_word enc (4 * (i - 4)) lxor tmp)
  done;
  { enc; dec = Atomic.make [||] }

(* Equivalent inverse cipher: round keys in reverse order, the inner
   nine through InvMixColumns. Two domains decrypting under a fresh
   schedule at once may both build it; they build the same words. *)
let dec_schedule k =
  let dec = Atomic.get k.dec in
  if Array.length dec > 0 then dec
  else begin
    let dec = Array.make 44 0 in
    for r = 0 to 10 do
      for c = 0 to 3 do
        let w = get_word k.enc (4 * ((4 * (10 - r)) + c)) in
        dec.((4 * r) + c) <- (if r = 0 || r = 10 then w else inv_mix_word w)
      done
    done;
    Atomic.set k.dec dec;
    dec
  end

(* State layout: column-major as in FIPS 197, byte [4*c + r] is row r,
   column c — the byte order of the packed round keys. *)
let add_round_key state enc r =
  for i = 0 to 15 do
    state.(i) <- state.(i) lxor Char.code (Bytes.get enc ((16 * r) + i))
  done

let sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- sbox.(state.(i))
  done

(* ShiftRows rotates row r left by r. *)
let shift_rows state =
  let get r c = state.((4 * c) + r) in
  let tmp = Array.make 16 0 in
  for r = 0 to 3 do
    for c = 0 to 3 do
      tmp.((4 * c) + r) <- get r ((c + r) mod 4)
    done
  done;
  Array.blit tmp 0 state 0 16

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c)
    and a1 = state.((4 * c) + 1)
    and a2 = state.((4 * c) + 2)
    and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- xtime a0 lxor gmul a1 3 lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor xtime a1 lxor gmul a2 3 lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor xtime a2 lxor gmul a3 3;
    state.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor xtime a3
  done

let state_of_bytes b =
  let s = Array.make 16 0 in
  for i = 0 to 15 do
    s.(i) <- Char.code (Bytes.get b i)
  done;
  s

let bytes_of_state s =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.set b i (Char.chr s.(i))
  done;
  b

let encrypt_block k block =
  if Bytes.length block <> 16 then invalid_arg "Aes128.encrypt_block: block must be 16 bytes";
  let s = state_of_bytes block in
  add_round_key s k.enc 0;
  for r = 1 to 9 do
    sub_bytes s;
    shift_rows s;
    mix_columns s;
    add_round_key s k.enc r
  done;
  sub_bytes s;
  shift_rows s;
  add_round_key s k.enc 10;
  bytes_of_state s

(* One inverse round for output column [i]: [x0..x3] are the input
   columns that feed rows 0..3 (InvShiftRows moves row r of column c to
   column c + r). *)
let inv_round rk i x0 x1 x2 x3 =
  td0.(x0 lsr 24)
  lxor td1.((x1 lsr 16) land 0xff)
  lxor td2.((x2 lsr 8) land 0xff)
  lxor td3.(x3 land 0xff)
  lxor rk.(i)

(* The last round has no InvMixColumns: plain inv_sbox bytes. *)
let inv_last rk i x0 x1 x2 x3 =
  (inv_sbox.(x0 lsr 24) lsl 24)
  lor (inv_sbox.((x1 lsr 16) land 0xff) lsl 16)
  lor (inv_sbox.((x2 lsr 8) land 0xff) lsl 8)
  lor inv_sbox.(x3 land 0xff)
  lxor rk.(i)

let decrypt_block k block =
  if Bytes.length block <> 16 then invalid_arg "Aes128.decrypt_block: block must be 16 bytes";
  let rk = dec_schedule k in
  let s0 = ref (get_word block 0 lxor rk.(0))
  and s1 = ref (get_word block 4 lxor rk.(1))
  and s2 = ref (get_word block 8 lxor rk.(2))
  and s3 = ref (get_word block 12 lxor rk.(3)) in
  for r = 1 to 9 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and i = 4 * r in
    s0 := inv_round rk i a0 a3 a2 a1;
    s1 := inv_round rk (i + 1) a1 a0 a3 a2;
    s2 := inv_round rk (i + 2) a2 a1 a0 a3;
    s3 := inv_round rk (i + 3) a3 a2 a1 a0
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let out = Bytes.create 16 in
  set_word out 0 (inv_last rk 40 a0 a3 a2 a1);
  set_word out 4 (inv_last rk 41 a1 a0 a3 a2);
  set_word out 8 (inv_last rk 42 a2 a1 a0 a3);
  set_word out 12 (inv_last rk 43 a3 a2 a1 a0);
  out

(* Counter block [i]: the nonce plus [i], big-endian modulo 2^128 —
   the block [incr_counter] reaches after [i] steps from the nonce. The
   low word's unsigned wrap carries into the high one. *)
let counter_at nonce i =
  let c = Bytes.copy nonce in
  let lo = Bytes.get_int64_be nonce 8 in
  let lo' = Int64.add lo (Int64.of_int i) in
  Bytes.set_int64_be c 8 lo';
  if Int64.unsigned_compare lo' lo < 0 then
    Bytes.set_int64_be c 0 (Int64.succ (Bytes.get_int64_be nonce 0));
  c

let incr_counter block =
  let rec go i =
    if i < 0 then ()
    else
      let v = (Char.code (Bytes.get block i) + 1) land 0xff in
      Bytes.set block i (Char.chr v);
      if v = 0 then go (i - 1)
  in
  go 15

(* Whole blocks are XORed with the keystream eight bytes at a time
   (the int64s stay unboxed); only a final partial block goes byte by
   byte. *)
let ctr_blocks k ~nonce ~len ~first ~count src dst =
  if Bytes.length nonce <> 16 then invalid_arg "Aes128.ctr_blocks: nonce must be 16 bytes";
  if first < 0 || count < 0 || count > ((len + 15) / 16) - first || len > Bytes.length src
     || len > Bytes.length dst
  then invalid_arg "Aes128.ctr_blocks: blocks outside the data";
  let counter = counter_at nonce first in
  for i = first to first + count - 1 do
    let p = 16 * i in
    let keystream = encrypt_block k counter in
    if len - p >= 16 then begin
      Bytes.set_int64_ne dst p
        (Int64.logxor (Bytes.get_int64_ne src p) (Bytes.get_int64_ne keystream 0));
      Bytes.set_int64_ne dst (p + 8)
        (Int64.logxor (Bytes.get_int64_ne src (p + 8)) (Bytes.get_int64_ne keystream 8))
    end
    else
      for j = 0 to len - p - 1 do
        Bytes.set_uint8 dst (p + j) (Bytes.get_uint8 src (p + j) lxor Bytes.get_uint8 keystream j)
      done;
    incr_counter counter
  done

let ctr_transform k ~nonce data =
  if Bytes.length nonce <> 16 then invalid_arg "Aes128.ctr_transform: nonce must be 16 bytes";
  let n = Bytes.length data in
  let out = Bytes.create n in
  ctr_blocks k ~nonce ~len:n ~first:0 ~count:((n + 15) / 16) data out;
  out
