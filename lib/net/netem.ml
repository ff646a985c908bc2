module Prng = Gkm_crypto.Prng

type cfg = { loss : Loss_model.t option; reorder : float; dup : float }

let check_p name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Netem.cfg: %s probability %g outside [0, 1]" name p)

let cfg ?loss ?(reorder = 0.0) ?(dup = 0.0) () =
  check_p "reorder" reorder;
  check_p "dup" dup;
  { loss; reorder; dup }

let none = { loss = None; reorder = 0.0; dup = 0.0 }

let is_none c =
  (match c.loss with None -> true | Some m -> Loss_model.mean_loss m = 0.0)
  && c.reorder = 0.0 && c.dup = 0.0

type 'a t = {
  c : cfg;
  rng : Prng.t;
  lstate : Loss_model.state option;
  mutable held : 'a option;
  mutable duplicates : int;
}

let create ~seed c =
  {
    c;
    rng = Prng.create seed;
    lstate = Option.map Loss_model.init_state c.loss;
    held = None;
    duplicates = 0;
  }

let push t p =
  let lost =
    match (t.c.loss, t.lstate) with
    | Some m, Some st -> Loss_model.drop m st t.rng
    | _ -> false
  in
  if lost then []
  else begin
    (* Release order: the packet held from an earlier push goes on the
       wire AFTER the current one — that pair is the reorder. A push
       that releases never also holds, so holds cannot chain into
       unbounded delay. *)
    let released =
      match t.held with
      | None -> []
      | Some h ->
          t.held <- None;
          [ h ]
    in
    if released = [] && t.c.reorder > 0.0 && Prng.bernoulli t.rng t.c.reorder then begin
      t.held <- Some p;
      []
    end
    else begin
      let out =
        if t.c.dup > 0.0 && Prng.bernoulli t.rng t.c.dup then begin
          t.duplicates <- t.duplicates + 1;
          [ p; p ]
        end
        else [ p ]
      in
      out @ released
    end
  end

let duplicates t = t.duplicates

let flush t =
  match t.held with
  | None -> []
  | Some h ->
      t.held <- None;
      [ h ]
