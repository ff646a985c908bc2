let hash_len = 32

let extract ~salt ~ikm = Hmac.apply salt [ (ikm, 0, Bytes.length ikm) ]

(* T(i) = HMAC(prk, T(i-1) || info || i) under one prepared [prk],
   streamed from where each part lies; each block lands straight in
   the output. *)
let expand ~prk ~info len =
  if len < 1 || len > 255 * hash_len then
    invalid_arg "Hkdf.expand: length outside [1, 255 * 32]";
  let prk = Hmac.prepare prk in
  let out = Bytes.create len in
  let counter = Bytes.create 1 in
  let info_part = (info, 0, Bytes.length info) and counter_part = (counter, 0, 1) in
  let rec fill i prev =
    let off = (i - 1) * hash_len in
    if off < len then begin
      Bytes.set_uint8 counter 0 i;
      let block = Hmac.apply prk (prev @ [ info_part; counter_part ]) in
      Bytes.blit block 0 out off (min hash_len (len - off));
      fill (i + 1) [ (block, 0, hash_len) ]
    end
  in
  fill 1 [];
  out

let derive ~salt ~ikm ~info len =
  expand ~prk:(extract ~salt ~ikm) ~info len

let label_info label fields =
  let buf = Buffer.create 32 in
  Buffer.add_string buf label;
  List.iter (fun v -> Buffer.add_int64_be buf (Int64.of_int v)) fields;
  Buffer.to_bytes buf
