module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng

type member_id = int

type node = {
  id : int;
  mutable key : Key.t;
  mutable version : int;
  mutable parent : node option;
  mutable children : node list; (* [] for a leaf *)
  mutable nchildren : int; (* = List.length children, cached *)
  member : member_id option; (* Some for a leaf *)
  mutable size : int; (* members in this subtree *)
  mutable cipher : Key.cipher option; (* lazy AES schedule of [key] *)
}

type t = {
  degree : int;
  rng : Prng.t;
  mutable root : node option;
  leaves : (member_id, node) Hashtbl.t;
  nodes : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable epoch : int;
}

type wrap = {
  under_node : int;
  under_key : Key.t;
  under_cipher : Key.cipher Lazy.t;
  receivers : int;
}

type update = {
  node_id : int;
  level : int;
  key : Key.t;
  version : int;
  wraps : wrap list;
}

let create ?(id_base = 0) ~degree rng =
  if degree < 2 then invalid_arg "Keytree.create: degree must be >= 2";
  {
    degree;
    rng;
    root = None;
    leaves = Hashtbl.create 64;
    nodes = Hashtbl.create 64;
    next_id = id_base;
    epoch = 0;
  }

let size t = match t.root with None -> 0 | Some r -> r.size
let mem t m = Hashtbl.mem t.leaves m
let members t = Hashtbl.fold (fun m _ acc -> m :: acc) t.leaves []
let root_id t = match t.root with None -> None | Some r -> Some r.id
let group_key t = match t.root with None -> None | Some r -> Some r.key
let is_leaf n = n.member <> None

(* The expanded AES schedule of a node's key, computed at most once
   per key refresh: a node key that survives many epochs serves as the
   wrapping KEK of its parent's refreshes without being re-expanded. *)
let node_cipher n =
  match n.cipher with
  | Some c -> c
  | None ->
      let c = Key.cipher n.key in
      n.cipher <- Some c;
      c

let fresh_node t ~key ~member =
  let n = { id = t.next_id; key; version = t.epoch; parent = None; children = []; nchildren = 0; member; size = (match member with Some _ -> 1 | None -> 0); cipher = None } in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.nodes n.id n;
  n

let unregister t n = Hashtbl.remove t.nodes n.id

let find_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let node_exists t id = Hashtbl.mem t.nodes id

let leaf_key t m =
  match Hashtbl.find_opt t.leaves m with Some leaf -> leaf.key | None -> raise Not_found

let path t m =
  match Hashtbl.find_opt t.leaves m with
  | None -> raise Not_found
  | Some leaf ->
      let rec up n acc =
        let acc = (n.id, n.key) :: acc in
        match n.parent with None -> List.rev acc | Some p -> up p acc
      in
      up leaf []

let iter_members_under t id f =
  let rec go n =
    match n.member with Some m -> f m | None -> List.iter go n.children
  in
  go (find_node t id)

let bump_sizes from delta =
  let rec go = function
    | None -> ()
    | Some n ->
        n.size <- n.size + delta;
        go n.parent
  in
  go from

let replace_child parent ~old_child ~new_child =
  parent.children <-
    List.map (fun c -> if c.id = old_child.id then new_child else c) parent.children

(* Insert [leaf] keeping the tree balanced: descend into the smallest
   child, attach where a slot is free, split a leaf at the bottom. *)
let insert_leaf t leaf =
  match t.root with
  | None -> t.root <- Some leaf
  | Some root ->
      let rec descend n =
        if is_leaf n then begin
          (* Split: a fresh interior node takes the place of [n] and
             adopts both [n] and the new leaf. *)
          let interior = fresh_node t ~key:(Key.fresh t.rng) ~member:None in
          (match n.parent with
          | None -> t.root <- Some interior
          | Some p -> replace_child p ~old_child:n ~new_child:interior);
          interior.parent <- n.parent;
          interior.size <- n.size;
          n.parent <- Some interior;
          leaf.parent <- Some interior;
          interior.children <- [ n; leaf ];
          interior.nchildren <- 2;
          bump_sizes (Some interior) 1
        end
        else if n.nchildren < t.degree then begin
          leaf.parent <- Some n;
          n.children <- n.children @ [ leaf ];
          n.nchildren <- n.nchildren + 1;
          bump_sizes (Some n) 1
        end
        else begin
          let smallest =
            List.fold_left
              (fun best c -> match best with Some b when b.size <= c.size -> best | _ -> Some c)
              None n.children
          in
          match smallest with
          | Some c -> descend c
          | None -> assert false (* interior node with degree >= 2 has children *)
        end
      in
      descend root

(* Remove [leaf]; returns the lowest surviving ancestor that the
   departed member's keys compromise (None if nothing survives on its
   path). Splices out single-child interior nodes. *)
let remove_leaf t leaf =
  Hashtbl.remove t.leaves (Option.get leaf.member);
  unregister t leaf;
  match leaf.parent with
  | None ->
      t.root <- None;
      None
  | Some p ->
      p.children <- List.filter (fun c -> c.id <> leaf.id) p.children;
      p.nchildren <- p.nchildren - 1;
      bump_sizes (Some p) (-1);
      (match p.children with
      | [ only ] ->
          (* Splice [p] away; [only] takes its position. *)
          unregister t p;
          (match p.parent with
          | None ->
              t.root <- Some only;
              only.parent <- None
          | Some gp ->
              replace_child gp ~old_child:p ~new_child:only;
              only.parent <- Some gp);
          p.parent
      | [] ->
          (* [leaf] was the only child: remove [p] itself. This only
             happens transiently (p was a 1-child root). *)
          unregister t p;
          (match p.parent with
          | None -> t.root <- None
          | Some gp ->
              gp.children <- List.filter (fun c -> c.id <> p.id) gp.children;
              gp.nchildren <- gp.nchildren - 1);
          p.parent
      | _ -> Some p)

let check_batch_args t ~departed ~joined =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m then invalid_arg "Keytree.batch_update: duplicate departure";
      Hashtbl.add seen m ();
      if not (mem t m) then
        invalid_arg (Printf.sprintf "Keytree.batch_update: departure of non-member %d" m))
    departed;
  let seen_j = Hashtbl.create 16 in
  List.iter
    (fun (m, _) ->
      if Hashtbl.mem seen_j m then invalid_arg "Keytree.batch_update: duplicate join";
      Hashtbl.add seen_j m ();
      if mem t m && not (Hashtbl.mem seen m) then
        invalid_arg (Printf.sprintf "Keytree.batch_update: join of existing member %d" m))
    joined

(* Level-indexed walk down the dirty subgraph. The dirty set is
   ancestor-closed — every survivor's path to the root is dirty and
   surviving — so one walk assigns all levels in O(d * |dirty|)
   instead of an O(depth) climb per node plus a global sort. *)
let dirty_by_level ~dirty root =
  let by_level = ref [] and max_level = ref 0 in
  let rec down level n =
    by_level := (level, n) :: !by_level;
    if level > !max_level then max_level := level;
    List.iter (fun c -> if Hashtbl.mem dirty c.id then down (level + 1) c) n.children
  in
  down 0 root;
  let levels = Array.make (!max_level + 1) [] in
  List.iter (fun (l, n) -> levels.(l) <- n :: levels.(l)) !by_level;
  levels

let wrap_of c =
  {
    under_node = c.id;
    under_key = c.key;
    under_cipher = lazy (node_cipher c);
    receivers = c.size;
  }

let batch_update t ~departed ~joined =
  check_batch_args t ~departed ~joined;
  if departed = [] && joined = [] then []
  else begin
    let dirty : (int, node) Hashtbl.t = Hashtbl.create 64 in
    let rec mark = function
      | None -> ()
      | Some n ->
          if not (Hashtbl.mem dirty n.id) then begin
            Hashtbl.add dirty n.id n;
            mark n.parent
          end
    in
    List.iter
      (fun m ->
        let leaf = Hashtbl.find t.leaves m in
        mark (remove_leaf t leaf))
      departed;
    List.iter
      (fun (m, key) ->
        let leaf = fresh_node t ~key ~member:(Some m) in
        Hashtbl.replace t.leaves m leaf;
        insert_leaf t leaf;
        mark leaf.parent)
      joined;
    t.epoch <- t.epoch + 1;
    (* Refresh keys of surviving dirty nodes first, then emit wraps so
       every wrap uses the child's final key for this epoch. *)
    let survivors =
      Hashtbl.fold (fun id n acc -> if Hashtbl.mem t.nodes id then n :: acc else acc) dirty []
    in
    List.iter
      (fun (n : node) ->
        n.key <- Key.fresh t.rng;
        n.cipher <- None;
        n.version <- t.epoch)
      survivors;
    (* Emit deepest-first (ties broken by ascending id). *)
    match t.root with
    | Some root when Hashtbl.mem t.nodes root.id && Hashtbl.mem dirty root.id ->
        let levels = dirty_by_level ~dirty root in
        let out = ref [] in
        for level = 0 to Array.length levels - 1 do
          let ns = List.sort (fun (a : node) b -> compare b.id a.id) levels.(level) in
          List.iter
            (fun (n : node) ->
              let wraps = List.map wrap_of n.children in
              out := { node_id = n.id; level; key = n.key; version = n.version; wraps } :: !out)
            ns
        done;
        !out
    | _ -> []
  end

let height t =
  match t.root with
  | None -> 0
  | Some root ->
      let rec go n = if is_leaf n then 0 else 1 + List.fold_left (fun m c -> max m (go c)) 0 n.children in
      go root

let check t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok = Ok () in
  let same_parent a b =
    match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false
  in
  let rec walk n parent =
    if not (same_parent n.parent parent) then fail "node %d has a wrong parent link" n.id
    else if not (Hashtbl.mem t.nodes n.id) then fail "node %d missing from node index" n.id
    else
      match n.member with
      | Some m ->
          if n.children <> [] then fail "leaf %d has children" n.id
          else if n.size <> 1 then fail "leaf %d has size %d" n.id n.size
          else if not (match Hashtbl.find_opt t.leaves m with Some l -> l == n | None -> false)
          then fail "member %d not indexed to its leaf" m
          else ok
      | None ->
          let nc = List.length n.children in
          if nc < 2 then fail "interior node %d has %d children" n.id nc
          else if nc > t.degree then fail "interior node %d exceeds degree" n.id
          else if nc <> n.nchildren then
            fail "node %d cached child count %d <> %d" n.id n.nchildren nc
          else begin
            let child_sum = List.fold_left (fun acc c -> acc + c.size) 0 n.children in
            if child_sum <> n.size then fail "node %d size %d <> children sum %d" n.id n.size child_sum
            else
              List.fold_left
                (fun acc c -> match acc with Error _ -> acc | Ok () -> walk c (Some n))
                ok n.children
          end
  in
  match t.root with
  | None -> if Hashtbl.length t.leaves = 0 then ok else fail "empty root but members indexed"
  | Some root ->
      (match walk root None with
      | Error _ as e -> e
      | Ok () ->
          let indexed = Hashtbl.length t.leaves in
          if indexed <> root.size then fail "member index size %d <> tree size %d" indexed root.size
          else ok)

let pp fmt t =
  let rec go indent n =
    (match n.member with
    | Some m -> Format.fprintf fmt "%s leaf m%d (%a)@." indent m Key.pp n.key
    | None -> Format.fprintf fmt "%s node #%d size=%d (%a)@." indent n.id n.size Key.pp n.key);
    List.iter (go (indent ^ "  ")) n.children
  in
  match t.root with
  | None -> Format.fprintf fmt "(empty keytree)@."
  | Some root -> go "" root

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let snapshot_magic = "GKTR"
let snapshot_version = 2

(* Any expanded schedule cached on a node belongs to that node's
   *current* key. Restore paths call this explicitly so a rebuilt
   tree can never serve a stale pre-crash schedule, whatever the
   construction path left in the cache fields. *)
let invalidate_schedules t = Hashtbl.iter (fun _ n -> n.cipher <- None) t.nodes

let snapshot t =
  let open Gkm_crypto.Codec in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_magic;
  add_u8 buf snapshot_version;
  add_u16 buf t.degree;
  add_i64 buf (Prng.save t.rng);
  add_i32 buf t.epoch;
  add_i64 buf (Int64.of_int t.next_id);
  let rec emit n =
    add_i64 buf (Int64.of_int n.id);
    add_key buf n.key;
    add_i32 buf n.version;
    add_i32 buf (match n.member with Some m -> m | None -> -1);
    add_u16 buf n.nchildren;
    List.iter emit n.children
  in
  (match t.root with
  | None -> add_u8 buf 0
  | Some root ->
      add_u8 buf 1;
      emit root);
  Buffer.to_bytes buf

let node_size = 8 + Key.size + 4 + 4 + 2

let restore blob =
  let open Gkm_crypto.Codec in
  parse blob @@ fun r ->
  magic r snapshot_magic;
  if u8 r <> snapshot_version then corrupt "unsupported snapshot version";
  let degree = u16 r in
  if degree < 2 then corrupt "corrupt degree";
  let rng = Prng.restore (i64 r) in
  let epoch = i32 r in
  let next_id = Int64.to_int (i64 r) in
  let t =
    {
      degree;
      rng;
      root = None;
      leaves = Hashtbl.create 64;
      nodes = Hashtbl.create 64;
      next_id;
      epoch;
    }
  in
  let rec read_node r =
    let id = Int64.to_int (i64 r) in
    let key = key r in
    let version = i32 r in
    let member = match i32 r with m when m < 0 -> None | m -> Some m in
    let node =
      {
        id;
        key;
        version;
        parent = None;
        children = [];
        nchildren = 0;
        member;
        size = 1;
        cipher = None;
      }
    in
    if Hashtbl.mem t.nodes id then corrupt "duplicate node id";
    Hashtbl.replace t.nodes id node;
    let children = list16 r ~min_item_size:node_size read_node in
    (match member with
    | Some m ->
        if children <> [] then corrupt "leaf with children";
        Hashtbl.replace t.leaves m node
    | None ->
        List.iter (fun c -> c.parent <- Some node) children;
        node.children <- children;
        node.nchildren <- List.length children;
        node.size <- List.fold_left (fun acc c -> acc + c.size) 0 children);
    node
  in
  (match u8 r with
  | 0 -> ()
  | 1 -> t.root <- Some (read_node r)
  | _ -> corrupt "corrupt root flag");
  (match check t with Ok () -> () | Error e -> corrupt "invalid snapshot: %s" e);
  invalidate_schedules t;
  t

module Private = struct
  let check = check
end
