(* SHA-256 per FIPS 180-4. The compression function is a C kernel
   (sha256_stubs.c); this module buffers partial blocks and pads. The
   chaining words are native ints holding 32-bit values. *)

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes currently in [buf] *)
  mutable total : int; (* total message length in bytes *)
}

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

(* [compress h block off] absorbs the 64-byte block at [block.[off]]
   into the chaining words [h]; the caller keeps the block inside
   [block]. *)
external compress : int array -> bytes -> int -> unit = "gkm_sha256_compress" [@@noalloc]

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
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed where they lie, without a copy. *)
  while stop - !pos >= 64 do
    compress ctx.h b !pos;
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
    compress ctx.h buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (ctx.buf_len + 1) (55 - ctx.buf_len) '\000';
  Bytes.set_int64_be buf 56 (Int64.shift_left (Int64.of_int ctx.total) 3);
  compress ctx.h buf 0;
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
