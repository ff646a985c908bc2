(* Verbatim copy of lib/crypto/sha256.ml before the native-int
   compress and the in-place slice updates: the oracle for the
   equivalence property test in Test_crypto. Do not optimize this
   file. The [open] below, for [Hex], is the only addition. *)

open Gkm_crypto

(* SHA-256 per FIPS 180-4. All word arithmetic is on int32. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes currently in [buf] *)
  mutable total : int64; (* total message length in bytes *)
  w : int32 array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let base = off + (4 * t) in
    let b i = Int32.of_int (Char.code (Bytes.get block (base + i))) in
    w.(t) <-
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor
           (Int32.shift_left (b 1) 16)
           (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
  done;
  for t = 16 to 63 do
    let s0 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 15) 7) (rotr w.(t - 15) 18))
        (Int32.shift_right_logical w.(t - 15) 3)
    in
    let s1 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 2) 17) (rotr w.(t - 2) 19))
        (Int32.shift_right_logical w.(t - 2) 10)
    in
    w.(t) <- Int32.add (Int32.add w.(t - 16) s0) (Int32.add w.(t - 7) s1)
  done;
  let a = ref ctx.h.(0)
  and b = ref ctx.h.(1)
  and c = ref ctx.h.(2)
  and d = ref ctx.h.(3)
  and e = ref ctx.h.(4)
  and f = ref ctx.h.(5)
  and g = ref ctx.h.(6)
  and hh = ref ctx.h.(7) in
  for t = 0 to 63 do
    let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch k.(t))) w.(t) in
    let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
    let maj =
      Int32.logxor
        (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
        (Int32.logand !b !c)
    in
    let t2 = Int32.add s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add t1 t2
  done;
  ctx.h.(0) <- Int32.add ctx.h.(0) !a;
  ctx.h.(1) <- Int32.add ctx.h.(1) !b;
  ctx.h.(2) <- Int32.add ctx.h.(2) !c;
  ctx.h.(3) <- Int32.add ctx.h.(3) !d;
  ctx.h.(4) <- Int32.add ctx.h.(4) !e;
  ctx.h.(5) <- Int32.add ctx.h.(5) !f;
  ctx.h.(6) <- Int32.add ctx.h.(6) !g;
  ctx.h.(7) <- Int32.add ctx.h.(7) !hh

let update ctx b =
  let len = Bytes.length b in
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref 0 in
  (* Fill a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit b 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx b !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit b !pos ctx.buf 0 rest;
    ctx.buf_len <- rest
  end

let update_string ctx s = update ctx (Bytes.of_string s)

let finalize ctx =
  let bit_len = Int64.mul ctx.total 8L in
  (* Append 0x80, pad with zeros to 56 mod 64, append 64-bit length. *)
  let pad_len =
    let r = (ctx.buf_len + 1 + 8) mod 64 in
    if r = 0 then 0 else 64 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set tail
      (1 + pad_len + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len shift) 0xffL)))
  done;
  (* Bypass [update]'s total accounting: the length is already fixed. *)
  let total_saved = ctx.total in
  update ctx tail;
  ctx.total <- total_saved;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    let byte shift = Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v shift) 0xffl)) in
    Bytes.set out (4 * i) (byte 24);
    Bytes.set out ((4 * i) + 1) (byte 16);
    Bytes.set out ((4 * i) + 2) (byte 8);
    Bytes.set out ((4 * i) + 3) (byte 0)
  done;
  out

let digest b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex s = Hex.encode (digest_string s)
