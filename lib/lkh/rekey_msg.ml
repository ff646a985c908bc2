module Key = Gkm_crypto.Key
module Keytree = Gkm_keytree.Keytree

type entry = {
  target_node : int;
  target_version : int;
  level : int;
  wrapped_under : int;
  receivers : int;
  ciphertext : bytes;
}

type t = { epoch : int; root_node : int; entries : entry list }

let of_updates ~epoch ~root_node updates =
  let entries =
    List.concat_map
      (fun (u : Keytree.update) ->
        (* one check per refreshed key, shared by all its wraps *)
        let check = Key.check u.key in
        List.map
          (fun (w : Keytree.wrap) ->
            {
              target_node = u.node_id;
              target_version = u.version;
              level = u.level;
              wrapped_under = w.under_node;
              receivers = w.receivers;
              ciphertext = Key.wrap_checked_with (Lazy.force w.under_cipher) ~check u.key;
            })
          u.wraps)
      updates
  in
  { epoch; root_node; entries }

let size_keys t = List.length t.entries

(* One walk per fresh path counts the fresh holders of every node;
   an entry survives iff some holder of its wrapping key is not fresh. *)
let for_audience ~fresh entries =
  let under = Hashtbl.create 64 in
  let count node = Option.value ~default:0 (Hashtbl.find_opt under node) in
  List.iter (List.iter (fun (node, _) -> Hashtbl.replace under node (1 + count node))) fresh;
  List.filter (fun e -> e.receivers > count e.wrapped_under) entries
