(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let save t = t.state
let restore state = { state }

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec go () =
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    let r = v mod n in
    if v - r > max_int - n + 1 then go () else r
  in
  go ()

let float t x =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let u = float_of_int bits /. 9007199254740992.0 in
  u *. x

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let bytes t n =
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    let v = ref (bits64 t) in
    let chunk = min 8 (n - !pos) in
    for i = 0 to chunk - 1 do
      Bytes.set out (!pos + i) (Char.chr (Int64.to_int (Int64.logand !v 0xffL)));
      v := Int64.shift_right_logical !v 8
    done;
    pos := !pos + chunk
  done;
  out

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
