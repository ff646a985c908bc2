module Prng = Gkm_crypto.Prng

type t =
  | Bernoulli of float
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

let check_prob name p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg (Printf.sprintf "Loss_model: %s = %g outside [0, 1]" name p)

let bernoulli p =
  check_prob "rate" p;
  Bernoulli p

let bursty ~mean_loss ~burstiness =
  check_prob "mean_loss" mean_loss;
  if burstiness <= 0.0 || burstiness >= 1.0 then
    invalid_arg "Loss_model.bursty: burstiness must be in (0, 1)";
  if mean_loss = 0.0 then Bernoulli 0.0
  else if mean_loss = 1.0 then Bernoulli 1.0
  else begin
    (* Expected burst length 1 / p_bg; stationary bad fraction
       p_gb / (p_gb + p_bg) = mean_loss. *)
    let p_bg = 1.0 -. burstiness in
    let p_gb = mean_loss *. p_bg /. (1.0 -. mean_loss) in
    Gilbert_elliott { p_gb = min 1.0 p_gb; p_bg; loss_good = 0.0; loss_bad = 1.0 }
  end

let mean_loss = function
  | Bernoulli p -> p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      if p_gb = 0.0 && p_bg = 0.0 then loss_good
      else begin
        let bad_fraction = p_gb /. (p_gb +. p_bg) in
        (loss_bad *. bad_fraction) +. (loss_good *. (1.0 -. bad_fraction))
      end

type state = { mutable in_bad : bool }

let init_state = function
  | Bernoulli _ -> { in_bad = false }
  | Gilbert_elliott _ -> { in_bad = false }

let drop model state rng =
  match model with
  | Bernoulli p -> Prng.bernoulli rng p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      (* Advance the chain, then sample loss in the new state. *)
      if state.in_bad then begin
        if Prng.bernoulli rng p_bg then state.in_bad <- false
      end
      else if Prng.bernoulli rng p_gb then state.in_bad <- true;
      Prng.bernoulli rng (if state.in_bad then loss_bad else loss_good)
