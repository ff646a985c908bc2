module Key = Gkm_crypto.Key

(* One held key. The expanded schedule is cached per slot: a member's
   individual key (and any long-lived subgroup key) serves as the
   unwrapping KEK for every refresh of its parent, so it is expanded
   once rather than once per rekey interval. *)
type slot = {
  key : Key.t;
  version : int;
  mutable cipher : Key.cipher option;
}

type t = {
  id : int;
  keys : (int, slot) Hashtbl.t; (* node id -> key, version, schedule *)
  mutable root_node : int option;
}

let slot key version = { key; version; cipher = None }

let slot_cipher s =
  match s.cipher with
  | Some c -> c
  | None ->
      let c = Key.cipher s.key in
      s.cipher <- Some c;
      c

let create ~id ~leaf_node ~individual_key =
  let keys = Hashtbl.create 16 in
  Hashtbl.replace keys leaf_node (slot individual_key 0);
  { id; keys; root_node = None }

let id t = t.id

let install_path t path =
  List.iter (fun (node, key) -> Hashtbl.replace t.keys node (slot key 0)) path

let set_root t node = t.root_node <- Some node
let knows t node = Hashtbl.mem t.keys node
let key_of t node = Option.map (fun s -> s.key) (Hashtbl.find_opt t.keys node)

let has_version t node version =
  match Hashtbl.find_opt t.keys node with
  | Some s -> s.version >= version
  | None -> false

let interested t ~target ~version ~under = knows t under && not (has_version t target version)

let process_entry t (e : Rekey_msg.entry) =
  match Hashtbl.find_opt t.keys e.wrapped_under with
  | None -> false
  | Some kek_slot ->
      if has_version t e.target_node e.target_version then false
      else begin
        (* A stale wrapping key (e.g. after migrating out of a
           partition) fails the key check and is ignored. *)
        match Key.unwrap_with (slot_cipher kek_slot) e.ciphertext with
        | Some key ->
            Hashtbl.replace t.keys e.target_node (slot key e.target_version);
            true
        | None -> false
      end

let process t (msg : Rekey_msg.t) =
  t.root_node <- Some msg.root_node;
  List.fold_left (fun acc e -> if process_entry t e then acc + 1 else acc) 0 msg.entries

let group_key t =
  match t.root_node with
  | None -> None
  | Some node -> Option.map (fun s -> s.key) (Hashtbl.find_opt t.keys node)

module Private = struct
  let key_of = key_of
end
