let block_size = 64

(* The chaining values after the ipad and the opad block: all that
   HMAC keeps of its key between messages. *)
type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare raw =
  let raw = if Bytes.length raw > block_size then Sha256.digest raw else raw in
  let n = Bytes.length raw in
  (* ipad || opad, both built in one pass over the key; past its end
     the key reads as zeros. *)
  let pads = Bytes.create (2 * block_size) in
  for i = 0 to block_size - 1 do
    let c = if i < n then Bytes.get_uint8 raw i else 0 in
    Bytes.set_uint8 pads i (c lxor 0x36);
    Bytes.set_uint8 pads (block_size + i) (c lxor 0x5c)
  done;
  let chain off =
    let ctx = Sha256.init () in
    Sha256.update_sub ctx pads off block_size;
    Sha256.midstate ctx
  in
  { inner = chain 0; outer = chain block_size }

let apply key parts =
  let inner = Sha256.resume key.inner in
  List.iter (fun (b, off, len) -> Sha256.update_sub inner b off len) parts;
  let outer = Sha256.resume key.outer in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = apply (prepare key) [ (msg, 0, Bytes.length msg) ]
