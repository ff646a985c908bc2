module Codec = Gkm_crypto.Codec
module Key = Gkm_crypto.Key
module Pkg = Gkm_crypto.Pkg
module Labels = Gkm_crypto.Labels

let magic = 0x474B (* "GK" *)

(* magic, version and tag; the body length's uvarint follows *)
let fixed_size = 4

(* The body bound of every live connection: far above the largest
   message the protocol sends (one sealed rekey packet, a full key
   path), and low enough that a hostile length cannot make a decoder
   allocate much. *)
let max_frame_default = 1 lsl 20

let resync_auth ~key ~member ~epoch =
  let buf = Buffer.create 32 in
  Buffer.add_string buf Labels.resync;
  Codec.add_i32 buf member;
  Codec.add_i32 buf epoch;
  Pkg.Kdf.prf ~key:(Key.to_bytes key) (Buffer.to_bytes buf)

let encode ?(version = Msg.version) msg =
  let body = Buffer.create 64 in
  Msg.encode_body body msg;
  let n = Buffer.length body in
  let hdr = Buffer.create 8 in
  Codec.add_u16 hdr magic;
  Codec.add_u8 hdr version;
  Codec.add_u8 hdr (Msg.tag msg);
  Codec.add_uvarint hdr n;
  let h = Buffer.length hdr in
  let frame = Bytes.create (h + n) in
  Buffer.blit hdr 0 frame 0 h;
  Buffer.blit body 0 frame h n;
  frame

type error = Version of int | Corrupt of string

let error_message = function
  | Version v -> Printf.sprintf "unsupported version %d" v
  | Corrupt e -> e

(* Streaming reassembly: bytes arrive in arbitrary chunks; frames are
   surfaced as soon as complete. The buffer starts small (most frames
   are control messages or small rekeys, and every connection end
   holds a decoder), doubles on demand, is compacted lazily and
   never grows past a maximal frame + one read chunk — a declared
   length beyond [max_frame] fails the stream before any allocation
   for the frame happens. *)

type decoder = {
  max_frame : int;
  mutable buf : bytes;
  mutable start : int;  (** first unconsumed byte *)
  mutable len : int;  (** valid bytes from [start] *)
  mutable dead : error option;  (** sticky stream error *)
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

let fail d e =
  d.dead <- Some e;
  Error e

(* The body length at [at]: [`Len (l, header)] once its last byte is
   in, [`More] before. A canonical uvarint no greater than [max_frame]
   is at most [uvarint_size max_frame] bytes, so a longer run, an
   overlong spelling (a zero last byte after the first) or a value
   past the bound — already visible in the bytes read so far, since
   later groups only add — is an error. *)
let body_length d =
  let limit = Codec.uvarint_size d.max_frame in
  let rec go i acc =
    if i >= limit then `Bad "frame length varint too long"
    else if d.len < fixed_size + i + 1 then `More
    else begin
      let b = Bytes.get_uint8 d.buf (d.start + fixed_size + i) in
      let acc = acc lor ((b land 0x7F) lsl (7 * i)) in
      if acc < 0 || acc > d.max_frame then
        `Bad (Printf.sprintf "declared frame length exceeds bound %d" d.max_frame)
      else if b land 0x80 <> 0 then go (i + 1) acc
      else if b = 0 && i > 0 then `Bad "overlong frame length"
      else `Len (acc, fixed_size + i + 1)
    end
  in
  go 0 0

let next d =
  match d.dead with
  | Some e -> Error e
  | None ->
      if d.len < fixed_size then Ok None
      else begin
        let at k = d.start + k in
        let m = Bytes.get_uint16_be d.buf (at 0) in
        let version = Bytes.get_uint8 d.buf (at 2) in
        let tag = Bytes.get_uint8 d.buf (at 3) in
        if m <> magic then fail d (Corrupt (Printf.sprintf "bad magic 0x%04X" m))
        else if version <> Msg.version then fail d (Version version)
        else
          match body_length d with
          | `More -> Ok None
          | `Bad e -> fail d (Corrupt e)
          | `Len (body_len, header) ->
              if d.len < header + body_len then Ok None
              else begin
                let body = Bytes.sub d.buf (at header) body_len in
                d.start <- d.start + header + body_len;
                d.len <- d.len - header - body_len;
                if d.len = 0 then d.start <- 0;
                match Msg.decode_body ~tag body with
                | Ok msg -> Ok (Some msg)
                | Error e -> fail d (Corrupt (Printf.sprintf "%s: %s" (Msg.tag_name tag) e))
              end
      end

(* A multicast datagram is whole SEALED frames back to back, the bytes
   the TCP fan-out writes for the same records, read by the same
   decoder. Any other message is refused with the datagram: the group
   is open to off-path senders, and only a sealed record authenticates
   itself. *)
let decode_datagram dgram =
  let n = Bytes.length dgram in
  if n = 0 then Error "empty datagram"
  else begin
    let d = decoder ~max_frame:n () in
    feed d dgram 0 n;
    let rec go acc =
      match next d with
      | Ok (Some (Msg.Sealed { epoch; seq; ct })) -> go ((epoch, seq, ct) :: acc)
      | Ok (Some m) -> Error (Msg.tag_name (Msg.tag m) ^ " in a datagram")
      | Ok None -> if d.len = 0 then Ok (List.rev acc) else Error "datagram ends mid-frame"
      | Error e -> Error (error_message e)
    in
    go []
  end
