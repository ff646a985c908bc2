module Bytes_io = Gkm_crypto.Bytes_io
module Key = Gkm_crypto.Key
module Pkg = Gkm_crypto.Pkg
module Labels = Gkm_crypto.Labels

let magic = 0x474B (* "GK" *)
let header_size = 8
let max_frame_default = 1 lsl 20

let resync_auth ~key ~member ~epoch =
  let buf = Buffer.create 32 in
  Buffer.add_string buf Labels.resync;
  Bytes_io.add_i32 buf member;
  Bytes_io.add_i32 buf epoch;
  Pkg.Kdf.prf ~key:(Key.to_bytes key) (Buffer.to_bytes buf)

let encode ?(version = Msg.version) msg =
  let buf = Buffer.create 64 in
  Bytes_io.add_u16 buf magic;
  Bytes_io.add_u8 buf version;
  Bytes_io.add_u8 buf (Msg.tag msg);
  Bytes_io.add_i32 buf 0 (* body length, patched below *);
  Msg.encode_body buf msg;
  let frame = Buffer.to_bytes buf in
  ignore (Bytes_io.put_i32 frame 4 (Bytes.length frame - header_size));
  frame

(* Streaming reassembly: bytes arrive in arbitrary chunks; frames are
   surfaced as soon as complete. The buffer starts small (most frames
   are control messages or small rekeys, and every connection end
   holds a decoder), doubles on demand, is compacted lazily and
   never grows past [max_frame + header_size] + one read chunk — a
   declared length beyond [max_frame] fails the stream before any
   allocation for the frame happens. *)

type decoder = {
  max_frame : int;
  mutable buf : bytes;
  mutable start : int;  (** first unconsumed byte *)
  mutable len : int;  (** valid bytes from [start] *)
  mutable dead : string option;  (** sticky stream error *)
}

let decoder ?(max_frame = max_frame_default) () =
  if max_frame < 1 then invalid_arg "Frame.decoder: max_frame must be >= 1";
  { max_frame; buf = Bytes.create 256; start = 0; len = 0; dead = None }

let buffered d = d.len

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Frame.feed: invalid slice";
  if d.dead = None then begin
    let cap = Bytes.length d.buf in
    if d.start + d.len + len > cap then begin
      (* Compact, growing only if the live bytes + new chunk demand it. *)
      let needed = d.len + len in
      let cap' = if needed <= cap then cap else max (2 * cap) needed in
      let buf' = if cap' = cap then d.buf else Bytes.create cap' in
      Bytes.blit d.buf d.start buf' 0 d.len;
      d.buf <- buf';
      d.start <- 0
    end;
    Bytes.blit src off d.buf (d.start + d.len) len;
    d.len <- d.len + len
  end

let fail d msg =
  d.dead <- Some msg;
  Error msg

let next d =
  match d.dead with
  | Some msg -> Error msg
  | None ->
      if d.len < header_size then Ok None
      else begin
        let at k = d.start + k in
        let m = Bytes_io.get_u16 d.buf (at 0) in
        if m <> magic then fail d (Printf.sprintf "bad magic 0x%04X" m)
        else begin
          let version = Bytes_io.get_u8 d.buf (at 2) in
          let tag = Bytes_io.get_u8 d.buf (at 3) in
          let body_len = Bytes_io.get_i32 d.buf (at 4) in
          if version <> Msg.version then fail d (Printf.sprintf "unsupported version %d" version)
          else if body_len < 0 || body_len > d.max_frame then
            fail d (Printf.sprintf "declared frame length %d exceeds bound %d" body_len d.max_frame)
          else if d.len < header_size + body_len then Ok None
          else begin
            let body = Bytes.sub d.buf (at header_size) body_len in
            d.start <- d.start + header_size + body_len;
            d.len <- d.len - header_size - body_len;
            if d.len = 0 then d.start <- 0;
            match Msg.decode_body ~tag body with
            | Ok msg -> Ok (Some msg)
            | Error e -> fail d (Printf.sprintf "%s: %s" (Msg.tag_name tag) e)
          end
        end
      end
