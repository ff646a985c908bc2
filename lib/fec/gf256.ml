(* GF(2^8) with polynomial 0x11d and generator 2. Exp/log tables are
   built once at module initialization. *)

let poly = 0x11d

let exp_table, log_table =
  let exp_t = Array.make 512 0 in
  let log_t = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp_t.(i) <- !x;
    log_t.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor poly
  done;
  (* Duplicate to avoid a modulo in [mul]. *)
  for i = 255 to 511 do
    exp_t.(i) <- exp_t.(i - 255)
  done;
  (exp_t, log_t)

let add a b = a lxor b
let sub = add

let mul a b = if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let div a b =
  if b = 0 then raise Division_by_zero;
  if a = 0 then 0 else exp_table.(log_table.(a) + 255 - log_table.(b))
