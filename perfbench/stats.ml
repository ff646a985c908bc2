(* Exact order statistics over retained sample vectors.

   Every percentile the benchmark prints comes from here: the samples
   are kept, sorted, and read by linear interpolation between the two
   closest ranks (the "type 7" estimator — numpy's and R's default).
   Nothing is read off histogram buckets. *)

type samples = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 64 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len
let of_list l =
  let s = create () in
  List.iter (add s) l;
  s

let sum s =
  let acc = ref 0.0 in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

(* [q] in [0, 1] over an ascending array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if q <= 0.0 then a.(0)
  else if q >= 1.0 then a.(n - 1)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let frac = h -. float_of_int lo in
    if lo + 1 >= n then a.(n - 1) else a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

let quantile s q = quantile_sorted (sorted s) q

(* 0 for an empty vector, so a layer a workload never touches reads 0
   rather than aborting the report. *)
let median s = if s.len = 0 then 0.0 else quantile s 0.5

(* How many samples lie strictly above the [q] quantile — the
   benchmark reports a tail percentile only together with this. *)
let beyond s q =
  if s.len = 0 then 0
  else
    let v = quantile s q in
    let k = ref 0 in
    for i = 0 to s.len - 1 do
      if s.data.(i) > v then incr k
    done;
    !k
