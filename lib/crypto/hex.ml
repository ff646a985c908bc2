let hex_digits = "0123456789abcdef"

let encode b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) hex_digits.[v lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[v land 0xf]
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hex.decode: invalid character %C" c)

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd-length input";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = nibble s.[2 * i] and lo = nibble s.[(2 * i) + 1] in
    Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
  done;
  out
