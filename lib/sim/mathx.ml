(* Lanczos approximation with g = 7, n = 9 coefficients (Boost /
   Numerical Recipes parameterization). *)

let lanczos_g = 7.0

let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec lgamma x =
  if x <= 0.0 then invalid_arg "Mathx.lgamma: requires x > 0"
  else if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. lgamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let ln_factorial n = lgamma (n +. 1.0)

let ln_choose n k =
  if k < 0.0 || k > n then neg_infinity
  else if k = 0.0 || k = n then 0.0
  else ln_factorial n -. ln_factorial k -. ln_factorial (n -. k)

let choose_ratio ~total ~excluded ~draws =
  if draws <= 0.0 then 1.0
  else if excluded <= 0.0 then 1.0
  else if draws > total -. excluded then 0.0
  else exp (ln_choose (total -. excluded) draws -. ln_choose total draws)

let logd ~d x = log x /. log (float_of_int d)
