module Channel = Gkm_net.Channel
module Keytree = Gkm_keytree.Keytree
module Rekey_msg = Gkm_lkh.Rekey_msg

type t = {
  entries : Rekey_msg.entry array;
  interest : int list array; (* receiver index -> entry indexes *)
}

let create ~channel ~entries ~interest =
  if Array.length interest <> Channel.size channel then
    invalid_arg "Job.create: interest array must cover the channel population";
  let n = Array.length entries in
  Array.iter
    (List.iter (fun e ->
         if e < 0 || e >= n then invalid_arg "Job.create: entry index out of range"))
    interest;
  { entries; interest }

let of_rekey ?(groups = []) ~channel ~trees (msg : Rekey_msg.t) =
  let entries = Array.of_list msg.entries in
  let interest = Array.make (Channel.size channel) [] in
  let add_member m idx =
    match Channel.index_of_member channel m with
    | r -> interest.(r) <- idx :: interest.(r)
    | exception Not_found -> ()
  in
  Array.iteri
    (fun idx (e : Rekey_msg.entry) ->
      let resolved =
        List.exists
          (fun tree ->
            if Keytree.node_exists tree e.wrapped_under then begin
              Keytree.iter_members_under tree e.wrapped_under (fun m -> add_member m idx);
              true
            end
            else false)
          trees
      in
      if not resolved then
        match List.assoc_opt e.wrapped_under groups with
        | Some members ->
            (* A synthetic KEK node declared by the organization (e.g. a
               per-band DEK of a composed organization): every listed
               holder is a receiver. *)
            List.iter (fun m -> add_member m idx) members
        | None ->
            (* Synthetic wrapping id: a queue-held member's own id. *)
            add_member e.wrapped_under idx)
    entries;
  (* Restore per-receiver ascending entry order (message order). *)
  let interest = Array.map List.rev interest in
  create ~channel ~entries ~interest

let n_entries t = Array.length t.entries
let n_receivers t = Array.length t.interest
let entry t i = t.entries.(i)
let interest t r = t.interest.(r)

module Private = struct
  let create = create
end
