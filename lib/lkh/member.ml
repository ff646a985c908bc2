module Key = Gkm_crypto.Key
module Labels = Gkm_crypto.Labels

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

let interested t (e : Rekey_msg.entry) =
  knows t e.wrapped_under && not (has_version t e.target_node e.target_version)

(* A derivation notice: compute the updated key locally from the
   input key we already hold. The version check is the staleness
   guard — deriving from the wrong key generation would silently
   install garbage, so a mismatched slot is skipped exactly like a
   failed unwrap. Version 0 marks keys installed over the secure
   unicast channel (install_path during admission or resync): those
   are current by construction but carry no epoch, so they are
   accepted; if the unicast state was somehow stale, the session's
   group-key verification catches the divergence and resyncs. *)
let process_derive t (e : Rekey_msg.entry) kek_slot =
  if kek_slot.version <> 0 && kek_slot.version <> Rekey_msg.derive_src_version e then false
  else begin
    let label = if e.wrapped_under = e.target_node then Labels.node_roll else Labels.node_up in
    let key = Key.expand_label kek_slot.key label [ e.target_node; e.target_version ] in
    Hashtbl.replace t.keys e.target_node (slot key e.target_version);
    true
  end

(* A derived-mode compact wrap: one block, no key check. The
   same staleness guard as derivation notices stands in for it — a
   stale KEK fails the version comparison instead of the (absent)
   key check, so the single-block decrypt below never runs under
   the wrong key generation. *)
let process_compact t (e : Rekey_msg.entry) kek_slot =
  if kek_slot.version <> 0 && kek_slot.version <> Rekey_msg.compact_src_version e then false
  else begin
    let key =
      Key.unwrap_block_with (slot_cipher kek_slot) (Rekey_msg.compact_wrapped_key e)
    in
    Hashtbl.replace t.keys e.target_node (slot key e.target_version);
    true
  end

let process_entry t (e : Rekey_msg.entry) =
  match Hashtbl.find_opt t.keys e.wrapped_under with
  | None -> false
  | Some kek_slot ->
      if has_version t e.target_node e.target_version then false
      else if Rekey_msg.is_derive e then process_derive t e kek_slot
      else if Rekey_msg.is_compact_wrap e then process_compact t e kek_slot
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

let known_keys t = Hashtbl.length t.keys

let forget_stale t ~keep =
  let stale = Hashtbl.fold (fun node _ acc -> if keep node then acc else node :: acc) t.keys [] in
  List.iter (Hashtbl.remove t.keys) stale
