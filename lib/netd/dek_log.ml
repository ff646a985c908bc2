module Hex = Gkm_crypto.Hex

(* Entries fill fixed chunks that are appended and never copied: one
   growable buffer per log would double in every member's log at the
   same rekey, a heap step of the whole group's history at once. *)
type t = {
  mutable full : bytes list;  (* filled chunks, newest first *)
  mutable cur : bytes;  (* the chunk being filled *)
  mutable len : int;  (* entries *)
}

let entry = 8
let chunk_entries = 256 (* 2 KiB *)
let no_key = 0x8000_0000

let create () = { full = []; cur = Bytes.empty; len = 0 }

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
  let i = t.len mod chunk_entries in
  if i = 0 then begin
    if t.len > 0 then t.full <- t.cur :: t.full;
    t.cur <- Bytes.create (chunk_entries * entry)
  end;
  let off = entry * i in
  let rekey_no = rekey_no land (no_key - 1) in
  let tag = if fp = "" then rekey_no lor no_key else rekey_no in
  Bytes.set_int32_be t.cur off (Int32.of_int tag);
  Bytes.blit raw 0 t.cur (off + 4) 4;
  t.len <- t.len + 1

let to_list t =
  let chunks = Array.of_list (List.rev (t.cur :: t.full)) in
  let rec go i acc =
    if i < 0 then acc
    else begin
      let buf = chunks.(i / chunk_entries) and off = entry * (i mod chunk_entries) in
      let tag = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF in
      let e =
        if tag land no_key <> 0 then (tag land lnot no_key, "")
        else (tag, Hex.encode (Bytes.sub buf (off + 4) 4))
      in
      go (i - 1) (e :: acc)
    end
  in
  go (t.len - 1) []
