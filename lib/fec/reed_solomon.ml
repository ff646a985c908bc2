type code = { k : int }

let create ~k =
  if k < 1 || k > 255 then invalid_arg "Reed_solomon.create: k must be in [1, 255]";
  { k }

let max_parity c = 256 - c.k

let check_data c data =
  if Array.length data <> c.k then
    invalid_arg
      (Printf.sprintf "Reed_solomon: expected %d data shards, got %d" c.k (Array.length data));
  if c.k > 0 then begin
    let len = Bytes.length data.(0) in
    Array.iter
      (fun s ->
        if Bytes.length s <> len then invalid_arg "Reed_solomon: shards must have equal length")
      data
  end

(* Lagrange basis coefficients for evaluating at [x] a polynomial known
   by its values at the distinct points [xs]: result.(i) is l_i(x), so
   P(x) = sum_i coeffs.(i) * y_i. *)
let lagrange_coefficients xs x =
  let n = Array.length xs in
  let coeffs = Array.make n 0 in
  for i = 0 to n - 1 do
    let num = ref 1 and den = ref 1 in
    for m = 0 to n - 1 do
      if m <> i then begin
        num := Gf256.mul !num (Gf256.sub x xs.(m));
        den := Gf256.mul !den (Gf256.sub xs.(i) xs.(m))
      end
    done;
    coeffs.(i) <- Gf256.div !num !den
  done;
  coeffs

let combine shards coeffs len =
  let out = Bytes.make len '\000' in
  Array.iteri
    (fun i shard ->
      let c = coeffs.(i) in
      if c <> 0 then
        for pos = 0 to len - 1 do
          Bytes.set out pos
            (Char.chr
               (Gf256.add (Char.code (Bytes.get out pos)) (Gf256.mul c (Char.code (Bytes.get shard pos)))))
        done)
    shards;
  out

let parity_shard c ~data ~index =
  check_data c data;
  if index < 0 || index >= max_parity c then
    invalid_arg (Printf.sprintf "Reed_solomon.parity_shard: index %d out of range" index);
  let len = Bytes.length data.(0) in
  let xs = Array.init c.k (fun i -> i) in
  let coeffs = lagrange_coefficients xs (c.k + index) in
  combine data coeffs len

let encode c ~data ~nparity =
  if nparity < 0 || nparity > max_parity c then
    invalid_arg "Reed_solomon.encode: nparity out of range";
  Array.init nparity (fun j -> parity_shard c ~data ~index:j)

let decode c ~shards =
  (* Deduplicate by index, validate, keep the first k distinct. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (idx, shard) ->
      if idx < 0 || idx > 255 then invalid_arg "Reed_solomon.decode: shard index out of range";
      if not (Hashtbl.mem seen idx) then Hashtbl.add seen idx shard)
    shards;
  if Hashtbl.length seen < c.k then None
  else begin
    let available = Hashtbl.fold (fun idx shard acc -> (idx, shard) :: acc) seen [] in
    let available = List.sort (fun (a, _) (b, _) -> compare a b) available in
    let chosen = Array.of_list (List.filteri (fun i _ -> i < c.k) available) in
    let len = Bytes.length (snd chosen.(0)) in
    Array.iter
      (fun (_, shard) ->
        if Bytes.length shard <> len then
          invalid_arg "Reed_solomon.decode: shards must have equal length")
      chosen;
    let xs = Array.map fst chosen in
    let values = Array.map snd chosen in
    let recover_point x =
      (* If the data shard itself is among the chosen, reuse it. *)
      match Array.to_list chosen |> List.assoc_opt x with
      | Some shard -> Bytes.copy shard
      | None -> combine values (lagrange_coefficients xs x) len
    in
    Some (Array.init c.k recover_point)
  end
