let add_u8 buf v = Buffer.add_uint8 buf (v land 0xff)

let add_u16 buf v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.add_u16: value exceeds 16 bits";
  Buffer.add_uint16_be buf v

let add_i32 buf v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg "Codec.add_i32: value exceeds 32 bits";
  Buffer.add_int32_be buf (Int32.of_int v)

let add_i64 = Buffer.add_int64_be
let add_f64 buf v = add_i64 buf (Int64.bits_of_float v)
let add_key buf k = Buffer.add_bytes buf (Key.to_bytes k)

let add_var16 buf b =
  add_u16 buf (Bytes.length b);
  Buffer.add_bytes buf b

let add_var32 buf b =
  add_i32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let add_opt buf add = function
  | None -> add_u8 buf 0
  | Some x ->
      add_u8 buf 1;
      add buf x

let add_list buf add items =
  add_i32 buf (List.length items);
  List.iter (add buf) items

(* LEB128 over the int's 63 bits, read as unsigned: [lsr] shifts in
   zeros, so a negative pattern (a zigzag image of a large magnitude)
   still ends, after at most 9 bytes. *)
let rec add_bits buf v =
  if v land lnot 0x7F = 0 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7F lor 0x80));
    add_bits buf (v lsr 7)
  end

let rec bits_size v = if v land lnot 0x7F = 0 then 1 else 1 + bits_size (v lsr 7)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor -(u land 1)

let add_uvarint buf v =
  if v < 0 then invalid_arg "Codec.add_uvarint: negative";
  add_bits buf v

let add_varint buf v = add_bits buf (zigzag v)

let add_uvarint_max buf ~max v =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Codec.add_uvarint_max: %d outside [0, %d]" v max);
  add_bits buf v

let add_u31 buf v = add_uvarint_max buf ~max:0x7FFF_FFFF v

let add_vlist buf add items =
  add_bits buf (List.length items);
  List.iter (add buf) items

let low7_clear = Int64.lognot 0x7FL

let rec add_bits64 buf u =
  if Int64.logand u low7_clear = 0L then Buffer.add_char buf (Char.unsafe_chr (Int64.to_int u))
  else begin
    Buffer.add_char buf (Char.unsafe_chr (Int64.to_int u land 0x7F lor 0x80));
    add_bits64 buf (Int64.shift_right_logical u 7)
  end

let rec bits64_size u =
  if Int64.logand u low7_clear = 0L then 1 else 1 + bits64_size (Int64.shift_right_logical u 7)

let add_seq64 = add_bits64
let uvarint_size v = bits_size v
let varint_size v = bits_size (zigzag v)
let seq64_size = bits64_size

(* [reveal off len], when present, is called before any read of bytes
   [off, off + len) of [buf]: the buffer of a record decrypted on demand
   holds plaintext only where a read has asked for it. *)
type reader = { buf : bytes; mutable pos : int; reveal : (int -> int -> unit) option }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let remaining r = Bytes.length r.buf - r.pos
let pos r = r.pos

let available r n =
  if n < 0 then corrupt "negative length %d" n;
  if remaining r < n then
    corrupt "truncated at byte %d: need %d bytes, have %d" r.pos n (remaining r)

let need r n =
  available r n;
  match r.reveal with Some reveal -> reveal r.pos n | None -> ()

let skip r n =
  available r n;
  r.pos <- r.pos + n

let blit_at r off dst dst_off n =
  if off < 0 || n < 0 || off > Bytes.length r.buf - n then
    corrupt "bytes [%d, +%d) outside a %d-byte input" off n (Bytes.length r.buf);
  (match r.reveal with Some reveal -> reveal off n | None -> ());
  Bytes.blit r.buf off dst dst_off n

let bytes_at r off n =
  let b = Bytes.create n in
  blit_at r off b 0 n;
  b

let u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let u16 r =
  need r 2;
  let v = Bytes.get_uint16_be r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let i32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

let i64 r =
  need r 8;
  let v = Bytes.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let f64 r = Int64.float_of_bits (i64 r)

(* Canonical LEB128 only: at most 9 bytes, which carry exactly 63
   bits, so a 10th byte is refused; and no zero last byte after the
   first, which would be an overlong spelling of a shorter value. *)
let rec bits_from r acc shift =
  let b = u8 r in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then begin
    if b = 0 && shift > 0 then corrupt "overlong varint at byte %d" (r.pos - 1);
    acc
  end
  else if shift = 56 then corrupt "varint longer than 9 bytes at byte %d" r.pos
  else bits_from r acc (shift + 7)

let bits r = bits_from r 0 0

let uvarint r =
  let v = bits r in
  if v < 0 then corrupt "unsigned varint %#x beyond max_int" v;
  v

let varint r = unzigzag (bits r)

let uvarint_max r ~max =
  let v = uvarint r in
  if v > max then corrupt "varint %d above %d" v max;
  v

let u31 r = uvarint_max r ~max:0x7FFF_FFFF

(* The 64-bit twin of [bits_from]: ten bytes carry 70 bits, so the
   10th may only be 1 (bit 63); anything longer is refused. *)
let rec bits64_from r acc shift =
  let b = u8 r in
  let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift) in
  if b < 0x80 then begin
    if b = 0 && shift > 0 then corrupt "overlong seq at byte %d" (r.pos - 1);
    if shift = 63 && b > 1 then corrupt "seq beyond 64 bits at byte %d" (r.pos - 1);
    acc
  end
  else if shift = 63 then corrupt "seq longer than 10 bytes at byte %d" r.pos
  else bits64_from r acc (shift + 7)

let seq64 r = bits64_from r 0L 0

let bytes r n =
  need r n;
  let b = Bytes.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  b

let key r = Key.of_bytes (bytes r Key.size)
let var16 r = bytes r (u16 r)
let var32 r = bytes r (i32 r)
let rest r = bytes r (remaining r)

let magic r tag =
  let got = Bytes.to_string (bytes r (String.length tag)) in
  if got <> tag then corrupt "bad magic %S (expected %S)" got tag

let opt r read =
  match u8 r with 0 -> None | 1 -> Some (read r) | b -> corrupt "bad presence byte %d" b

(* Explicit recursion: the cursor demands left-to-right reads, which
   [List.init] does not promise. *)
let items r ~min_item_size n item =
  if min_item_size < 1 then invalid_arg "Codec.items: min_item_size < 1";
  if n < 0 then corrupt "negative count %d" n;
  if n > remaining r / min_item_size then
    corrupt "%d items cannot fit in %d remaining bytes" n (remaining r);
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (item r :: acc) in
  go n []

let list16 r ~min_item_size item = items r ~min_item_size (u16 r) item
let list r ~min_item_size item = items r ~min_item_size (i32 r) item
let vlist r ~min_item_size item = items r ~min_item_size (uvarint r) item

let run r decode =
  match decode r with
  | v -> if remaining r = 0 then Ok v else Error (Printf.sprintf "%d trailing bytes" (remaining r))
  | exception Corrupt msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let parse buf decode = run { buf; pos = 0; reveal = None } decode

let parse_from buf ~off ~reveal decode =
  if off < 0 || off > Bytes.length buf then invalid_arg "Codec.parse_from: offset outside the input";
  run { buf; pos = off; reveal = Some reveal } decode
