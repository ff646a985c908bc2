module Prng = Gkm_crypto.Prng

type receiver = { member : int; model : Loss_model.t; state : Loss_model.state }

type t = { rng : Prng.t; receivers : receiver array; by_member : (int, int) Hashtbl.t }

let create ~rng specs =
  let receivers =
    Array.of_list
      (List.map
         (fun (member, model) -> { member; model; state = Loss_model.init_state model })
         specs)
  in
  let by_member = Hashtbl.create (Array.length receivers) in
  Array.iteri
    (fun i r ->
      if Hashtbl.mem by_member r.member then
        invalid_arg (Printf.sprintf "Channel.create: duplicate member %d" r.member);
      Hashtbl.add by_member r.member i)
    receivers;
  { rng; receivers; by_member }

let size t = Array.length t.receivers
let receiver t i = t.receivers.(i)

let index_of_member t m =
  match Hashtbl.find_opt t.by_member m with Some i -> i | None -> raise Not_found

let multicast_into t mask =
  if Array.length mask <> Array.length t.receivers then
    invalid_arg "Channel.multicast_into: mask length does not match population";
  for i = 0 to Array.length t.receivers - 1 do
    let r = Array.unsafe_get t.receivers i in
    Array.unsafe_set mask i (not (Loss_model.drop r.model r.state t.rng))
  done

let two_class ~rng ~n ~alpha ~high ~low =
  if n < 0 then invalid_arg "Channel.two_class: negative population";
  if alpha < 0.0 || alpha > 1.0 then invalid_arg "Channel.two_class: alpha outside [0, 1]";
  let n_high = int_of_float (Float.round (alpha *. float_of_int n)) in
  let ids = Array.init n (fun i -> i) in
  Prng.shuffle rng ids;
  let high_set = Hashtbl.create n_high in
  Array.iteri (fun rank m -> if rank < n_high then Hashtbl.add high_set m ()) ids;
  let specs =
    List.init n (fun m -> (m, if Hashtbl.mem high_set m then high else low))
  in
  let channel = create ~rng specs in
  let high_members = List.filter (Hashtbl.mem high_set) (List.init n Fun.id) in
  let low_members = List.filter (fun m -> not (Hashtbl.mem high_set m)) (List.init n Fun.id) in
  (channel, high_members, low_members)
