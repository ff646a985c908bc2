type config = { keys_per_packet : int; block_size : int; max_proactivity : int }

let default = { keys_per_packet = 25; block_size = 16; max_proactivity = 32 }

let validate cfg =
  if cfg.keys_per_packet < 1 then invalid_arg "Proactive_fec: keys_per_packet must be >= 1";
  if cfg.block_size < 1 then invalid_arg "Proactive_fec: block_size must be >= 1";
  if cfg.max_proactivity < 0 then invalid_arg "Proactive_fec: negative proactivity bound"

(* ln P[Bin(n, q) >= k] — probability a receiver with success rate q
   holds at least k of n packets. *)
let ln_binomial_tail ~n ~q ~k =
  if k <= 0 then 0.0
  else if k > n then neg_infinity
  else if q >= 1.0 then 0.0
  else if q <= 0.0 then neg_infinity
  else begin
    let lnq = log q and lnq' = log (1.0 -. q) in
    let nf = float_of_int n in
    let acc = ref 0.0 in
    for i = k to n do
      let fi = float_of_int i in
      let term =
        Gkm_sim.Mathx.ln_choose nf fi +. (fi *. lnq) +. ((nf -. fi) *. lnq')
      in
      acc := !acc +. exp term
    done;
    if !acc >= 1.0 then 0.0 else log !acc
  end

let block_cost cfg ~receivers ~composition ~a0 =
  validate cfg;
  Wka_bkr.validate_composition composition;
  if a0 < 0 then invalid_arg "Proactive_fec.block_cost: negative a0";
  if receivers <= 0.0 then 0.0
  else begin
    let k = cfg.block_size in
    let classes =
      List.filter_map
        (fun (f, p) ->
          let r = f *. receivers in
          if r <= 0.0 then None else Some (r, 1.0 -. p))
        composition
    in
    (* ln P[every receiver holds >= j of n packets]. *)
    let ln_all_have ~n ~j =
      List.fold_left (fun acc (r, q) -> acc +. (r *. ln_binomial_tail ~n ~q ~k:j)) 0.0 classes
    in
    let total = ref (float_of_int (k + a0)) in
    let sent = ref (k + a0) in
    let round = ref 0 in
    let undone = ref (-.expm1 (ln_all_have ~n:!sent ~j:k)) in
    while !undone > 1e-9 && !round < 60 do
      incr round;
      (* E[max shortfall] = sum_{j>=1} P[some receiver misses >= j]. *)
      let expected_max = ref 0.0 in
      for j = 1 to k do
        let p_ge_j = -.expm1 (ln_all_have ~n:!sent ~j:(k - j + 1)) in
        expected_max := !expected_max +. p_ge_j
      done;
      let send_now = max 1 (int_of_float (Float.round !expected_max)) in
      total := !total +. !expected_max;
      sent := !sent + send_now;
      undone := -.expm1 (ln_all_have ~n:!sent ~j:k)
    done;
    !total
  end

let optimal_block_cost cfg ~receivers ~composition =
  validate cfg;
  let rec scan a0 best =
    if a0 > cfg.max_proactivity then best
    else begin
      let c = block_cost cfg ~receivers ~composition ~a0 in
      let best = match best with Some (_, bc) when bc <= c -> best | _ -> Some (a0, c) in
      scan (a0 + 1) best
    end
  in
  match scan 0 None with Some r -> r | None -> assert false

let scheme_cost cfg ~keys ~receivers ~composition =
  validate cfg;
  if keys <= 0.0 || receivers <= 0.0 then 0.0
  else begin
    let per_block = float_of_int (cfg.keys_per_packet * cfg.block_size) in
    let blocks = Float.ceil (keys /. per_block) in
    let _, cost = optimal_block_cost cfg ~receivers ~composition in
    blocks *. cost *. float_of_int cfg.keys_per_packet
  end

let one_keytree cfg (lc : Loss_homogenized.config) ~alpha =
  Loss_homogenized.validate lc;
  let keys = Batch_cost.expected_keys ~d:lc.d ~n:(float_of_int lc.n) ~l:(float_of_int lc.l) in
  scheme_cost cfg ~keys ~receivers:(float_of_int lc.n)
    ~composition:(Wka_bkr.two_class ~alpha ~ph:lc.ph ~pl:lc.pl)

let loss_homogenized cfg (lc : Loss_homogenized.config) ~alpha =
  Loss_homogenized.validate lc;
  if alpha <= 0.0 || alpha >= 1.0 then one_keytree cfg lc ~alpha
  else begin
    let nh = int_of_float (Float.round (alpha *. float_of_int lc.n)) in
    let nl = lc.n - nh in
    let lh =
      int_of_float
        (Float.round (float_of_int lc.l *. float_of_int nh /. float_of_int (max 1 lc.n)))
    in
    let ll = lc.l - lh in
    let tree size departures p =
      if size = 0 then 0.0
      else begin
        (* Per-tree payload plus one DEK wrap delivered to this tree. *)
        let keys =
          Batch_cost.expected_keys ~d:lc.d ~n:(float_of_int size) ~l:(float_of_int departures)
          +. 1.0
        in
        scheme_cost cfg ~keys ~receivers:(float_of_int size) ~composition:(Wka_bkr.uniform p)
      end
    in
    tree nh lh lc.ph +. tree nl ll lc.pl
  end

let reduction cfg lc ~alpha =
  let base = one_keytree cfg lc ~alpha in
  if base = 0.0 then 0.0 else 1.0 -. (loss_homogenized cfg lc ~alpha /. base)

module Private = struct
  let block_cost = block_cost
  let optimal_block_cost = optimal_block_cost
end
