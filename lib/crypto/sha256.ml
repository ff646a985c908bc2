(* SHA-256 per FIPS 180-4. Words are native ints holding 32-bit
   values, so the rounds never box an int32. Native-int addition
   wraps modulo 2^63, which keeps the low 32 bits exact: a sum is
   masked back to 32 bits only where the word is stored or later
   rotated. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes currently in [buf] *)
  mutable total : int; (* total message length in bytes *)
}

(* The 64-word message schedule lives only inside one [compress], so
   each domain keeps one and every context borrows it, as the socket
   layer's receive buffers are kept. A domain runs one compression at
   a time: the codebase starts no systhreads. *)
let schedule_key = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* A chaining state on a block boundary; never mutated once built, so
   any number of contexts, on any domains, may start from it. *)
type midstate = { words : int array; len : int }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: not on a block boundary";
  { words = Array.copy ctx.h; len = ctx.total }

let resume m = { h = Array.copy m.words; buf = Bytes.create 64; buf_len = 0; total = m.len }

let iv =
  {
    words =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    len = 0;
  }

let init () = resume iv

let mask = 0xffff_ffff

(* Rotations read a word doubled into [x lor (x lsl 32)]: bits
   [n, n + 32) of it are the word rotated right by [n], for any
   [n < 32] — the bit the 63-bit int drops is never one of them. The
   bits left above bit 31 are garbage until the sum is masked. *)
let[@inline] doubled x = x lor (x lsl 32)

(* Absorb the 64-byte block at [block.[off]]. *)
let compress ctx block off =
  let w = Domain.DLS.get schedule_key in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = doubled x and yy = doubled y in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let ee = doubled e' and aa = doubled a' in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let update_sub ctx b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Sha256.update_sub: slice outside the buffer";
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  (* Fill a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit b off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed where they lie, without a copy. *)
  while stop - !pos >= 64 do
    compress ctx b !pos;
    pos := !pos + 64
  done;
  let rest = stop - !pos in
  if rest > 0 then begin
    Bytes.blit b !pos ctx.buf 0 rest;
    ctx.buf_len <- rest
  end

let update ctx b = update_sub ctx b 0 (Bytes.length b)

(* Hashing only reads [s], so viewing it as bytes is safe. *)
let update_string ctx s = update_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  (* Append 0x80, pad with zeros to 56 mod 64, append the 64-bit bit
     length — all inside [buf], spilling into a second block when
     fewer than 9 bytes are free. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  if ctx.buf_len + 1 > 56 then begin
    Bytes.fill buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (ctx.buf_len + 1) (55 - ctx.buf_len) '\000';
  Bytes.set_int64_be buf 56 (Int64.shift_left (Int64.of_int ctx.total) 3);
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  out

let digest b =
  let ctx = init () in
  update ctx b;
  finalize ctx
