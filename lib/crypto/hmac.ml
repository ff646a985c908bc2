let block_size = 64

let mac_parts ~key parts =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let n = Bytes.length key in
  (* ipad || opad, both built in one pass over the key; past its end
     the key reads as zeros. *)
  let pads = Bytes.create (2 * block_size) in
  for i = 0 to block_size - 1 do
    let c = if i < n then Bytes.get_uint8 key i else 0 in
    Bytes.set_uint8 pads i (c lxor 0x36);
    Bytes.set_uint8 pads (block_size + i) (c lxor 0x5c)
  done;
  let inner = Sha256.init () in
  Sha256.update_sub inner pads 0 block_size;
  List.iter (fun (b, off, len) -> Sha256.update_sub inner b off len) parts;
  let outer = Sha256.init () in
  Sha256.update_sub outer pads block_size block_size;
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_parts ~key [ (msg, 0, Bytes.length msg) ]
let mac_string ~key msg = mac ~key:(Bytes.of_string key) (Bytes.of_string msg)

let verify ~key msg ~tag =
  let expected = mac ~key msg in
  if Bytes.length tag <> Bytes.length expected then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length tag - 1 do
      diff := !diff lor (Char.code (Bytes.get tag i) lxor Char.code (Bytes.get expected i))
    done;
    !diff = 0
  end
