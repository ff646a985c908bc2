type composition = (float * float) list

let uniform p = [ (1.0, p) ]

let two_class ~alpha ~ph ~pl =
  if alpha <= 0.0 then [ (1.0, pl) ]
  else if alpha >= 1.0 then [ (1.0, ph) ]
  else [ (alpha, ph); (1.0 -. alpha, pl) ]

let validate_composition comp =
  if comp = [] then invalid_arg "Wka_bkr: empty composition";
  let total = List.fold_left (fun acc (f, _) -> acc +. f) 0.0 comp in
  if abs_float (total -. 1.0) > 1e-6 then
    invalid_arg (Printf.sprintf "Wka_bkr: composition fractions sum to %g, not 1" total);
  List.iter
    (fun (f, p) ->
      if f < 0.0 then invalid_arg "Wka_bkr: negative class fraction";
      if p < 0.0 || p >= 1.0 then
        invalid_arg (Printf.sprintf "Wka_bkr: loss rate %g outside [0, 1)" p))
    comp

(* E[M] = sum_{m>=1} (1 - prod_c (1 - p_c^{m-1})^{R_c}), truncated when
   the tail term is negligible. The m = 1 term is always 1 (the first
   transmission always happens). *)
let expected_replications ~receivers comp =
  validate_composition comp;
  if receivers <= 0.0 then 0.0
  else begin
    let classes =
      List.filter_map
        (fun (f, p) ->
          let r = f *. receivers in
          if r <= 0.0 || p <= 0.0 then None else Some (r, p))
        comp
    in
    if classes = [] then 1.0
    else begin
      let total = ref 1.0 (* m = 1 *) in
      let m = ref 2 in
      let continue = ref true in
      while !continue do
        (* term = 1 - prod_c (1 - p_c^(m-1))^(R_c), in log space. *)
        let log_prod =
          List.fold_left
            (fun acc (r, p) ->
              acc +. (r *. log1p (-.(p ** float_of_int (!m - 1)))))
            0.0 classes
        in
        let term = -.expm1 log_prod in
        total := !total +. term;
        if term < 1e-12 || !m > 100_000 then continue := false;
        incr m
      done;
      !total
    end
  end

type tree = { size : int; departures : int; composition : composition }

let child_sizes ~d s =
  let nchild = min d s in
  let q = s / nchild and r = s mod nchild in
  List.init nchild (fun i -> if i < r then q + 1 else q)

let tree_cost ~d (t : tree) =
  if d < 2 then invalid_arg "Wka_bkr.tree_cost: degree must be >= 2";
  validate_composition t.composition;
  if t.size < 0 || t.departures < 0 then invalid_arg "Wka_bkr.tree_cost: negative inputs";
  let l = min t.departures t.size in
  if t.size <= 1 || l <= 0 then 0.0
  else begin
    let nf = float_of_int t.size and lf = float_of_int l in
    let p_update s =
      1.0 -. Gkm_sim.Mathx.choose_ratio ~total:nf ~excluded:(float_of_int s) ~draws:lf
    in
    let em = Hashtbl.create 32 in
    let replications s =
      match Hashtbl.find_opt em s with
      | Some v -> v
      | None ->
          let v = expected_replications ~receivers:(float_of_int s) t.composition in
          Hashtbl.replace em s v;
          v
    in
    let memo = Hashtbl.create 64 in
    let rec walk s =
      if s <= 1 then 0.0
      else
        match Hashtbl.find_opt memo s with
        | Some c -> c
        | None ->
            let sizes = child_sizes ~d s in
            let own =
              p_update s *. List.fold_left (fun acc cs -> acc +. replications cs) 0.0 sizes
            in
            let c = List.fold_left (fun acc cs -> acc +. walk cs) own sizes in
            Hashtbl.replace memo s c;
            c
    in
    walk t.size
  end

let forest_cost ~d trees =
  let live = List.filter (fun t -> t.size > 0) trees in
  let per_tree = List.fold_left (fun acc t -> acc +. tree_cost ~d t) 0.0 live in
  match live with
  | [] | [ _ ] -> per_tree
  | _ :: _ :: _ ->
      let any_departure = List.exists (fun t -> min t.departures t.size > 0) live in
      if not any_departure then per_tree
      else begin
        (* The DEK node sits above the tree roots: one encryption per
           tree, each needed by that tree's whole membership. *)
        let dek_cost =
          List.fold_left
            (fun acc t ->
              acc +. expected_replications ~receivers:(float_of_int t.size) t.composition)
            0.0 live
        in
        per_tree +. dek_cost
      end

module Private = struct
  let expected_replications = expected_replications
end
