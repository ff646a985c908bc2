(* Verbatim copy of lib/keytree/keytree.ml as of the seed revision
   (before the hot-path overhaul): the oracle for the equivalence
   property tests in Test_keytree. Do not optimize this file. *)

module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng

type member_id = int

type node = {
  id : int;
  mutable key : Key.t;
  mutable version : int;
  mutable parent : node option;
  mutable children : node list; (* [] for a leaf *)
  member : member_id option; (* Some for a leaf *)
  mutable size : int; (* members in this subtree *)
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

type wrap = { under_node : int; under_key : Key.t; receivers : int }
type update = { node_id : int; level : int; key : Key.t; version : int; wraps : wrap list }

type depth_stats = {
  min_depth : int;
  max_depth : int;
  mean_depth : float;
  node_count : int;
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

let degree t = t.degree
let size t = match t.root with None -> 0 | Some r -> r.size
let epoch t = t.epoch
let mem t m = Hashtbl.mem t.leaves m
let members t = Hashtbl.fold (fun m _ acc -> m :: acc) t.leaves []
let root_id t = match t.root with None -> None | Some r -> Some r.id
let group_key t = match t.root with None -> None | Some r -> Some r.key
let is_leaf n = n.member <> None

let fresh_node t ~key ~member =
  let n = { id = t.next_id; key; version = t.epoch; parent = None; children = []; member; size = (match member with Some _ -> 1 | None -> 0) } in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.nodes n.id n;
  n

let unregister t n = Hashtbl.remove t.nodes n.id

let find_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let node_exists t id = Hashtbl.mem t.nodes id
let subtree_size t id = (find_node t id).size

let rec depth n = match n.parent with None -> 0 | Some p -> 1 + depth p

let node_level t id = depth (find_node t id)

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

let members_under t id =
  let rec collect n acc =
    match n.member with
    | Some m -> m :: acc
    | None -> List.fold_left (fun acc c -> collect c acc) acc n.children
  in
  collect (find_node t id) []

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
          bump_sizes (Some interior) 1
        end
        else if List.length n.children < t.degree then begin
          leaf.parent <- Some n;
          n.children <- n.children @ [ leaf ];
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
              gp.children <- List.filter (fun c -> c.id <> p.id) gp.children);
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
      Hashtbl.fold
        (fun id n acc -> if Hashtbl.mem t.nodes id then n :: acc else acc)
        dirty []
    in
    List.iter
      (fun (n : node) ->
        n.key <- Key.fresh t.rng;
        n.version <- t.epoch)
      survivors;
    let with_depth = List.map (fun n -> (depth n, n)) survivors in
    let deepest_first =
      List.sort (fun (da, a) (db, b) -> if da <> db then compare db da else compare a.id b.id) with_depth
    in
    List.map
      (fun (level, n) ->
        let wraps =
          List.map
            (fun c -> { under_node = c.id; under_key = c.key; receivers = c.size })
            n.children
        in
        { node_id = n.id; level; key = n.key; version = n.version; wraps })
      deepest_first
  end

let rekey_cost updates =
  List.fold_left (fun acc u -> acc + List.length u.wraps) 0 updates

let height t =
  match t.root with
  | None -> 0
  | Some root ->
      let rec go n = if is_leaf n then 0 else 1 + List.fold_left (fun m c -> max m (go c)) 0 n.children in
      go root

let depth_stats t =
  match t.root with
  | None -> invalid_arg "Keytree.depth_stats: empty tree"
  | Some root ->
      let min_d = ref max_int and max_d = ref 0 and sum_d = ref 0 and leaves = ref 0 in
      let count = ref 0 in
      let rec go d n =
        incr count;
        if is_leaf n then begin
          if d < !min_d then min_d := d;
          if d > !max_d then max_d := d;
          sum_d := !sum_d + d;
          incr leaves
        end
        else List.iter (go (d + 1)) n.children
      in
      go 0 root;
      {
        min_depth = !min_d;
        max_depth = !max_d;
        mean_depth = float_of_int !sum_d /. float_of_int !leaves;
        node_count = !count;
      }

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
    Buffer.add_bytes buf (Key.to_bytes n.key);
    add_i32 buf n.version;
    add_i32 buf (match n.member with Some m -> m | None -> -1);
    add_u16 buf (List.length n.children);
    List.iter emit n.children
  in
  (match t.root with
  | None -> add_u8 buf 0
  | Some root ->
      add_u8 buf 1;
      emit root);
  Buffer.to_bytes buf

let restore blob =
  let get_u8 = Bytes.get_uint8 and get_u16 = Bytes.get_uint16_be in
  let get_i32 b pos = Int32.to_int (Bytes.get_int32_be b pos) and get_i64 = Bytes.get_int64_be in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let len = Bytes.length blob in
  if len < 4 + 1 + 2 + 8 + 4 + 8 + 1 then fail "snapshot too short"
  else if Bytes.sub_string blob 0 4 <> snapshot_magic then fail "bad snapshot magic"
  else if get_u8 blob 4 <> snapshot_version then fail "unsupported snapshot version"
  else begin
    let degree = get_u16 blob 5 in
    if degree < 2 then fail "corrupt degree"
    else begin
      let rng = Prng.restore (get_i64 blob 7) in
      let epoch = get_i32 blob 15 in
      let next_id = Int64.to_int (get_i64 blob 19) in
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
      let pos = ref 27 in
      let rec read_node () =
        if len - !pos < 8 + Key.size + 4 + 4 + 2 then
          Error "truncated node"
        else begin
          let id = Int64.to_int (get_i64 blob !pos) in
          let key = Key.of_bytes (Bytes.sub blob (!pos + 8) Key.size) in
          let version = get_i32 blob (!pos + 8 + Key.size) in
          let member_raw = get_i32 blob (!pos + 12 + Key.size) in
          let nchildren = get_u16 blob (!pos + 16 + Key.size) in
          pos := !pos + 18 + Key.size;
          let member = if member_raw < 0 then None else Some member_raw in
          if member <> None && nchildren > 0 then Error "leaf with children"
          else if Hashtbl.mem t.nodes id then Error "duplicate node id"
          else begin
            let node =
              {
                id;
                key;
                version;
                parent = None;
                children = [];
                member;
                size = (match member with Some _ -> 1 | None -> 0);
              }
            in
            Hashtbl.replace t.nodes id node;
            (match member with Some m -> Hashtbl.replace t.leaves m node | None -> ());
            let rec read_children k acc =
              if k = 0 then Ok (List.rev acc)
              else
                match read_node () with
                | Error _ as e -> e
                | Ok child ->
                    child.parent <- Some node;
                    read_children (k - 1) (child :: acc)
            in
            match read_children nchildren [] with
            | Error _ as e -> e
            | Ok children ->
                node.children <- children;
                node.size <-
                  (match member with
                  | Some _ -> 1
                  | None -> List.fold_left (fun acc c -> acc + c.size) 0 children);
                Ok node
          end
        end
      in
      if len - !pos < 1 then fail "missing root flag"
      else begin
        let has_root = get_u8 blob !pos in
        incr pos;
        match has_root with
        | 0 ->
            if !pos <> len then fail "trailing bytes"
            else (match check t with Ok () -> Ok t | Error e -> fail "invalid snapshot: %s" e)
        | 1 -> (
            match read_node () with
            | Error e -> fail "%s" e
            | Ok root ->
                t.root <- Some root;
                if !pos <> len then fail "trailing bytes"
                else (
                  match check t with Ok () -> Ok t | Error e -> fail "invalid snapshot: %s" e))
        | _ -> fail "corrupt root flag"
      end
    end
  end
