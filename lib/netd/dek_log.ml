module Hex = Gkm_crypto.Hex

type t = { mutable buf : bytes; mutable len : int (* entries *) }

let entry = 8
let no_key = 0x8000_0000

let create () = { buf = Bytes.empty; len = 0 }

let add t ~rekey_no fp =
  let raw =
    match fp with
    | "" -> Bytes.make 4 '\000'
    | fp ->
        let raw = try Hex.decode fp with Invalid_argument _ -> Bytes.empty in
        if Bytes.length raw <> 4 || Hex.encode raw <> fp then
          invalid_arg (Printf.sprintf "Dek_log.add: %S is not a fingerprint" fp);
        raw
  in
  let off = entry * t.len in
  if off + entry > Bytes.length t.buf then begin
    let buf = Bytes.create (max (8 * entry) (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 off;
    t.buf <- buf
  end;
  let rekey_no = rekey_no land (no_key - 1) in
  let tag = if fp = "" then rekey_no lor no_key else rekey_no in
  Bytes.set_int32_be t.buf off (Int32.of_int tag);
  Bytes.blit raw 0 t.buf (off + 4) 4;
  t.len <- t.len + 1

let to_list t =
  let rec go i acc =
    if i < 0 then acc
    else begin
      let off = entry * i in
      let tag = Int32.to_int (Bytes.get_int32_be t.buf off) land 0xFFFF_FFFF in
      let e =
        if tag land no_key <> 0 then (tag land lnot no_key, "")
        else (tag, Hex.encode (Bytes.sub t.buf (off + 4) 4))
      in
      go (i - 1) (e :: acc)
    end
  in
  go (t.len - 1) []
