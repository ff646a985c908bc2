module Hex = Gkm_crypto.Hex

(* Entries fill fixed chunks that are appended and never copied: one
   growable buffer per log would double in every member's log at the
   same rekey, a heap step of the whole group's history at once.

   An entry is only its fingerprint's 4 raw bytes. Its [rekey_no] is
   the previous entry's plus one, as when a member installs rekey
   after rekey, unless the entry is marked: the first entry, a jump in
   the numbering and the no-key [""] each keep their number, and the
   no-key flag, in [marks]. *)
type t = {
  mutable full : bytes list;  (* filled chunks, newest first *)
  mutable cur : bytes;  (* the chunk being filled *)
  mutable len : int;  (* entries *)
  mutable marks : (int * int) list;  (* (entry index, tag), newest first *)
  mutable next : int;  (* the rekey_no an unmarked entry carries *)
}

let entry = 4
let chunk_entries = 512 (* 2 KiB *)
let no_key = 0x8000_0000
let fold n = n land (no_key - 1)

let create () = { full = []; cur = Bytes.empty; len = 0; marks = []; next = -1 }

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
  let rekey_no = fold rekey_no in
  if fp = "" || rekey_no <> t.next then
    t.marks <- (t.len, if fp = "" then rekey_no lor no_key else rekey_no) :: t.marks;
  Bytes.blit raw 0 t.cur (entry * i) entry;
  t.next <- fold (rekey_no + 1);
  t.len <- t.len + 1

let to_list t =
  let chunks = Array.of_list (List.rev (t.cur :: t.full)) in
  (* [marks] holds the newest mark at or before entry [i]; entry 0 is
     always marked, since [next] starts outside the folded range. *)
  let rec go i marks acc =
    if i < 0 then acc
    else
      match marks with
      | (at, _) :: older when at > i -> go i older acc
      | [] -> assert false
      | (at, tag) :: _ ->
          let e =
            if at = i && tag land no_key <> 0 then (fold tag, "")
            else
              let buf = chunks.(i / chunk_entries) and off = entry * (i mod chunk_entries) in
              (fold (tag + i - at), Hex.encode (Bytes.sub buf off entry))
          in
          go (i - 1) marks (e :: acc)
  in
  go (t.len - 1) t.marks []
