type scheme = One_keytree | Qt | Tt | Pt

let scheme_name = function
  | One_keytree -> "one-keytree"
  | Qt -> "QT-scheme"
  | Tt -> "TT-scheme"
  | Pt -> "PT-scheme"


type derived = {
  j : float;
  ncs : float;
  ncl : float;
  lcs : float;
  lcl : float;
  ns : float;
  nl : float;
  lm : float;
  ls : float;
  ll : float;
}

(* Formula (2): probability that a member with mean duration [m]
   departs within a window of length [t]. *)
let pr t m = 1.0 -. exp (-.t /. m)

let derive (p : Params.t) =
  Params.validate p;
  let n = float_of_int p.n in
  let ps = pr p.tp p.ms and pl = pr p.tp p.ml in
  (* N = Ncs + Ncl with Ncs = alpha J / Ps, Ncl = (1 - alpha) J / Pl
     (formulas 1, 3-5). *)
  let j = n /. ((p.alpha /. ps) +. ((1.0 -. p.alpha) /. pl)) in
  let ncs = p.alpha *. j /. ps in
  let ncl = (1.0 -. p.alpha) *. j /. pl in
  let lcs = p.alpha *. j in
  let lcl = (1.0 -. p.alpha) *. j in
  (* Formula (6): residents of the S-partition by age cohort. *)
  let ns = ref 0.0 in
  for i = 0 to p.k - 1 do
    let age = float_of_int i *. p.tp in
    ns :=
      !ns
      +. (p.alpha *. j *. exp (-.age /. p.ms))
      +. ((1.0 -. p.alpha) *. j *. exp (-.age /. p.ml))
  done;
  let ns = !ns in
  let nl = n -. ns in
  (* Formula (7): survivors of the full S-period migrate. *)
  let ts = float_of_int p.k *. p.tp in
  let lm =
    (p.alpha *. j *. exp (-.ts /. p.ms)) +. ((1.0 -. p.alpha) *. j *. exp (-.ts /. p.ml))
  in
  let ls = j -. lm in
  let ll = lm in
  { j; ncs; ncl; lcs; lcl; ns; nl; lm; ls; ll }

let ne (p : Params.t) n l = Batch_cost.expected_keys ~d:p.d ~n ~l

let cost (p : Params.t) scheme =
  let dv = derive p in
  match scheme with
  | One_keytree -> ne p (float_of_int p.n) dv.j
  | Qt ->
      (* Formula (8): the queue costs one key per S-resident, plus the
         L-partition tree. *)
      if p.k = 0 then ne p (float_of_int p.n) dv.j
      else dv.ns +. ne p dv.nl dv.ll
  | Tt ->
      (* Formula (9): the S-tree turns over J members per interval
         (Ls departures + Lm migrations = J). *)
      if p.k = 0 then ne p (float_of_int p.n) dv.j
      else ne p dv.ns dv.j +. ne p dv.nl dv.ll
  | Pt ->
      (* Formula (10): oracle placement, no migration. *)
      ne p dv.ncs dv.lcs +. ne p dv.ncl dv.lcl

let reduction p scheme =
  let base = cost p One_keytree in
  if base = 0.0 then 0.0 else 1.0 -. (cost p scheme /. base)

let best_k (p : Params.t) scheme ~k_max =
  if k_max < 0 then invalid_arg "Two_partition.best_k: negative k_max";
  let rec scan k best =
    if k > k_max then best
    else begin
      let c = cost { p with k } scheme in
      let best = match best with Some (_, bc) when bc <= c -> best | _ -> Some (k, c) in
      scan (k + 1) best
    end
  in
  match scan 0 None with Some r -> r | None -> assert false
