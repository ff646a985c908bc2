type mixture = { alpha : float; ms : float; ml : float }

let density mean x = if x < 0.0 then 0.0 else exp (-.x /. mean) /. mean

let responsibility m x =
  let ws = m.alpha *. density m.ms x in
  let wl = (1.0 -. m.alpha) *. density m.ml x in
  if ws +. wl <= 0.0 then 0.5 else ws /. (ws +. wl)

let normalize m = if m.ms <= m.ml then m else { alpha = 1.0 -. m.alpha; ms = m.ml; ml = m.ms }

(* EM stops after this many steps, or sooner once one step moves the
   fit by less than [tol] (summed over alpha and the means' relative
   changes). Both are convergence guards, not tuning knobs. *)
let iterations = 200
let tol = 1e-9

let em durations =
  let xs = List.filter (fun x -> x > 0.0 && Float.is_finite x) durations in
  let n = List.length xs in
  if n < 2 then invalid_arg "Fit.em: need at least 2 positive durations";
  let nf = float_of_int n in
  let sorted = List.sort compare xs in
  (* Initialize from the lower/upper halves. *)
  let half = n / 2 in
  let lower = List.filteri (fun i _ -> i < half) sorted in
  let upper = List.filteri (fun i _ -> i >= half) sorted in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let init =
    let ms = max 1e-9 (mean lower) and ml = max 1e-9 (mean upper) in
    if ms = ml then { alpha = 0.5; ms; ml = ml *. 2.0 } else { alpha = 0.5; ms; ml }
  in
  let rec iterate m step =
    if step >= iterations then m
    else begin
      let rs = List.map (responsibility m) xs in
      let sum_r = List.fold_left ( +. ) 0.0 rs in
      let sum_rx = List.fold_left2 (fun acc r x -> acc +. (r *. x)) 0.0 rs xs in
      let sum_r' = nf -. sum_r in
      let sum_rx' = List.fold_left2 (fun acc r x -> acc +. ((1.0 -. r) *. x)) 0.0 rs xs in
      let m' =
        {
          alpha = sum_r /. nf;
          ms = (if sum_r > 1e-12 then max 1e-9 (sum_rx /. sum_r) else m.ms);
          ml = (if sum_r' > 1e-12 then max 1e-9 (sum_rx' /. sum_r') else m.ml);
        }
      in
      let delta =
        abs_float (m'.alpha -. m.alpha)
        +. (abs_float (m'.ms -. m.ms) /. m.ms)
        +. (abs_float (m'.ml -. m.ml) /. m.ml)
      in
      if delta < tol then m' else iterate m' (step + 1)
    end
  in
  normalize (iterate init 0)
