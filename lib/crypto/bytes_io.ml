let fits_i32 v = v >= Int32.to_int Int32.min_int && v <= Int32.to_int Int32.max_int

let put_u8 buf pos v =
  Bytes.set_uint8 buf pos (v land 0xff);
  pos + 1

let put_u16 buf pos v =
  if v < 0 || v > 0xffff then invalid_arg "Bytes_io.put_u16: value exceeds 16 bits";
  Bytes.set_uint16_be buf pos v;
  pos + 2

let put_i32 buf pos v =
  if not (fits_i32 v) then invalid_arg "Bytes_io.put_i32: value exceeds 32 bits";
  Bytes.set_int32_be buf pos (Int32.of_int v);
  pos + 4

let put_i64 buf pos v =
  Bytes.set_int64_be buf pos v;
  pos + 8

let add_u8 buf v = Buffer.add_uint8 buf (v land 0xff)

let add_u16 buf v =
  if v < 0 || v > 0xffff then invalid_arg "Bytes_io.add_u16: value exceeds 16 bits";
  Buffer.add_uint16_be buf v

let add_i32 buf v =
  if not (fits_i32 v) then invalid_arg "Bytes_io.add_i32: value exceeds 32 bits";
  Buffer.add_int32_be buf (Int32.of_int v)

let add_i64 = Buffer.add_int64_be
let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_be
let get_i32 buf pos = Int32.to_int (Bytes.get_int32_be buf pos)
let get_i64 = Bytes.get_int64_be
let has buf ~pos ~len = pos >= 0 && len >= 0 && pos + len <= Bytes.length buf
