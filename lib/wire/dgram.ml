module Codec = Gkm_crypto.Codec

type t = { epoch : int; records : (int64 * bytes) list }

let magic = 0x474D (* "GM" *)

let version = 1

let max_records = 255

(* magic, version and count; the epoch label's uvarint follows *)
let fixed_size = 4

let encoded_size { epoch; records } =
  List.fold_left
    (fun acc (seq, ct) ->
      let n = Bytes.length ct in
      acc + Codec.seq64_size seq + Codec.uvarint_size n + n)
    (fixed_size + Codec.uvarint_size epoch)
    records

let encode ({ epoch; records } as d) =
  let n = List.length records in
  if n > max_records then
    invalid_arg (Printf.sprintf "Dgram.encode: %d records exceed the u8 count" n);
  let buf = Buffer.create (encoded_size d) in
  Codec.add_u16 buf magic;
  Codec.add_u8 buf version;
  Codec.add_u8 buf n;
  Codec.add_u31 buf epoch;
  List.iter
    (fun (seq, ct) ->
      Codec.add_seq64 buf seq;
      Codec.add_vbytes buf ct)
    records;
  Buffer.to_bytes buf

let decode b =
  Codec.parse b (fun r ->
      let m = Codec.u16 r in
      if m <> magic then Codec.corrupt "dgram magic 0x%04x" m;
      let v = Codec.u8 r in
      if v <> version then Codec.corrupt "dgram version %d" v;
      let count = Codec.u8 r in
      if count = 0 then Codec.corrupt "dgram with zero records";
      let epoch = Codec.u31 r in
      let records =
        (* a record is at least a 1-byte seq and a 1-byte length *)
        Codec.items r ~min_item_size:2 count (fun r ->
            let seq = Codec.seq64 r in
            let ct = Codec.vbytes r in
            (seq, ct))
      in
      { epoch; records })
