type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations *)
}

let create () = { n = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let ci95_halfwidth t =
  if t.n < 2 then nan else 1.96 *. stddev t /. sqrt (float_of_int t.n)

module Sample = struct
  type t = { mutable data : float array; mutable n : int; mutable sorted : bool }

  let create () = { data = [||]; n = 0; sorted = true }

  let add t x =
    if t.n = Array.length t.data then begin
      let ndata = Array.make (max 16 (2 * t.n)) 0.0 in
      Array.blit t.data 0 ndata 0 t.n;
      t.data <- ndata
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.n in
      Array.sort compare live;
      Array.blit live 0 t.data 0 t.n;
      t.sorted <- true
    end

  let quantile t q =
    if t.n = 0 then invalid_arg "Stats.Sample.quantile: empty sample";
    if q < 0.0 || q > 1.0 then invalid_arg "Stats.Sample.quantile: q outside [0, 1]";
    ensure_sorted t;
    let pos = q *. float_of_int (t.n - 1) in
    let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
end
