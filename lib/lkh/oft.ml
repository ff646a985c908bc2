module Prng = Gkm_crypto.Prng
module Sha256 = Gkm_crypto.Sha256
module Labels = Gkm_crypto.Labels

let secret_size = 32

(* One-way blinding g and the mixing function f of [BM00]. The xor
   mix makes f symmetric, which spares views from tracking left/right
   orientation; both functions are domain-separated SHA-256 with
   prefixes from the {!Labels} registry. *)
let blind x =
  let ctx = Sha256.init () in
  Sha256.update_string ctx Labels.oft_blind;
  Sha256.update ctx x;
  Sha256.finalize ctx

let mix a b =
  let x = Bytes.create secret_size in
  for i = 0 to secret_size - 1 do
    Bytes.set x i (Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))
  done;
  let ctx = Sha256.init () in
  Sha256.update_string ctx Labels.oft_mix;
  Sha256.update ctx x;
  Sha256.finalize ctx

type node = {
  id : int;
  mutable secret : bytes;
  mutable parent : node option;
  mutable children : (node * node) option; (* binary: both or none *)
  member : int option;
  mutable size : int;
}

type view = {
  v_member : int;
  mutable v_secret : bytes; (* own leaf secret *)
  v_blinded : (int, bytes) Hashtbl.t; (* sibling node id -> blinded secret *)
  mutable v_path : (int * int) list; (* (ancestor id, sibling id), leaf's parent first *)
}

type t = {
  rng : Prng.t;
  mutable root : node option;
  leaves : (int, node) Hashtbl.t;
  nodes : (int, node) Hashtbl.t;
  views : (int, view) Hashtbl.t;
  evicted : (int, view) Hashtbl.t;
  mutable next_id : int;
  mutable last_broadcast : int;
  mutable last_unicast : int;
}

let create ?(seed = 0) () =
  {
    rng = Prng.create seed;
    root = None;
    leaves = Hashtbl.create 32;
    nodes = Hashtbl.create 32;
    views = Hashtbl.create 32;
    evicted = Hashtbl.create 32;
    next_id = 0;
    last_broadcast = 0;
    last_unicast = 0;
  }

let size t = match t.root with None -> 0 | Some r -> r.size
let is_member t m = Hashtbl.mem t.leaves m
let members t = Hashtbl.fold (fun m _ acc -> m :: acc) t.leaves []
let root_secret t = match t.root with None -> None | Some r -> Some (Bytes.copy r.secret)
let last_broadcast_cost t = t.last_broadcast
let last_unicast_cost t = t.last_unicast

let fresh_node t ~secret ~member =
  let n =
    {
      id = t.next_id;
      secret;
      parent = None;
      children = None;
      member;
      size = (match member with Some _ -> 1 | None -> 0);
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.nodes n.id n;
  n

let fresh_secret t = Prng.bytes t.rng secret_size

(* Recompute the derived secrets from [n] (or its parent chain) up. *)
let rec recompute_up n =
  (match n.children with
  | Some (l, r) ->
      n.secret <- mix (blind l.secret) (blind r.secret);
      n.size <- l.size + r.size
  | None -> ());
  match n.parent with Some p -> recompute_up p | None -> ()

let sibling_of n =
  match n.parent with
  | None -> None
  | Some p -> (
      match p.children with
      | Some (l, r) -> if l.id = n.id then Some r else Some l
      | None -> None)

(* Path spec of a leaf: (ancestor id, sibling id) bottom-up. *)
let path_spec leaf =
  let rec go n acc =
    match n.parent with
    | None -> List.rev acc
    | Some p ->
        let sib = match sibling_of n with Some s -> s | None -> assert false in
        go p ((p.id, sib.id) :: acc)
  in
  go leaf []

let rec collect_members n acc =
  match n.member with
  | Some m -> m :: acc
  | None -> (
      match n.children with
      | Some (l, r) -> collect_members l (collect_members r acc)
      | None -> acc)

(* Refresh a member's mirror view from the server tree (the effect of
   the unicast/multicast deliveries the cost counters account for). *)
let refresh_view t m =
  let leaf = Hashtbl.find t.leaves m in
  let spec = path_spec leaf in
  let view =
    match Hashtbl.find_opt t.views m with
    | Some v -> v
    | None ->
        let v =
          { v_member = m; v_secret = leaf.secret; v_blinded = Hashtbl.create 8; v_path = [] }
        in
        Hashtbl.replace t.views m v;
        v
  in
  view.v_secret <- Bytes.copy leaf.secret;
  view.v_path <- spec;
  view

(* Record the new blinded value of [node] in the views of the members
   beneath [audience]. *)
let deliver_blind t ~audience ~node =
  let blinded = blind node.secret in
  List.iter
    (fun m ->
      match Hashtbl.find_opt t.views m with
      | Some v -> Hashtbl.replace v.v_blinded node.id blinded
      | None -> ())
    (collect_members audience [])

(* ------------------------------------------------------------------ *)
(* Structural halves of join/leave. Propagation and view refresh are
   deferred so that a batch can share them across its members. *)

(* Insert a leaf for [m]; returns (leaf, shape_scope): the subtree
   under which path shapes changed. *)
let insert_structural t m =
  let leaf = fresh_node t ~secret:(fresh_secret t) ~member:(Some m) in
  Hashtbl.replace t.leaves m leaf;
  match t.root with
  | None ->
      t.root <- Some leaf;
      (leaf, None)
  | Some root ->
      (* Descend into the smaller child; split the leaf we land on. *)
      let rec descend n =
        match n.children with
        | Some (l, r) -> descend (if l.size <= r.size then l else r)
        | None ->
            let interior = fresh_node t ~secret:(fresh_secret t) ~member:None in
            (match n.parent with
            | None -> t.root <- Some interior
            | Some p -> (
                match p.children with
                | Some (l, r) when l.id = n.id -> p.children <- Some (interior, r)
                | Some (l, r) when r.id = n.id -> p.children <- Some (l, interior)
                | _ -> assert false));
            interior.parent <- n.parent;
            n.parent <- Some interior;
            leaf.parent <- Some interior;
            interior.children <- Some (n, leaf)
      in
      descend root;
      let interior = Option.get leaf.parent in
      recompute_up interior;
      (* The displaced leaf's member gains a level: one
         unicast-equivalent value carries its new sibling blind. *)
      (match interior.children with
      | Some (old_leaf, _) when old_leaf.member <> None && old_leaf.id <> leaf.id ->
          t.last_unicast <- t.last_unicast + 1
      | _ -> ());
      let shape_scope = match interior.parent with Some p -> p | None -> interior in
      (leaf, Some shape_scope)

let freeze_view t m =
  match Hashtbl.find_opt t.views m with
  | Some v ->
      Hashtbl.replace t.evicted m
        {
          v_member = m;
          v_secret = Bytes.copy v.v_secret;
          v_blinded = Hashtbl.copy v.v_blinded;
          v_path = v.v_path;
        };
      Hashtbl.remove t.views m
  | None -> ()

(* Remove [m]'s leaf; returns (refreshed leaf, shape_scope). The
   refreshed leaf of the promoted sibling subtree gets a fresh secret
   (one unicast) so the evicted member's stale blinds become useless. *)
let remove_structural t m =
  let leaf = Hashtbl.find t.leaves m in
  freeze_view t m;
  Hashtbl.remove t.leaves m;
  Hashtbl.remove t.nodes leaf.id;
  match leaf.parent with
  | None ->
      t.root <- None;
      (None, None)
  | Some p ->
      Hashtbl.remove t.nodes p.id;
      let sib = match sibling_of leaf with Some s -> s | None -> assert false in
      (* Splice: the sibling subtree takes the parent's place. *)
      (match p.parent with
      | None ->
          t.root <- Some sib;
          sib.parent <- None
      | Some gp ->
          (match gp.children with
          | Some (l, r) when l.id = p.id -> gp.children <- Some (sib, r)
          | Some (l, r) when r.id = p.id -> gp.children <- Some (l, sib)
          | _ -> assert false);
          sib.parent <- Some gp);
      let rec leftmost n = match n.children with Some (l, _) -> leftmost l | None -> n in
      let refreshed = leftmost sib in
      refreshed.secret <- fresh_secret t;
      t.last_unicast <- t.last_unicast + 1;
      recompute_up refreshed;
      (match refreshed.member with Some rm -> ignore (refresh_view t rm) | None -> ());
      let shape_scope = match sib.parent with Some gp -> gp | None -> sib in
      (Some refreshed, Some shape_scope)

(* Broadcast each changed blinded value exactly once: the dirty set is
   the union of the changed leaves' root paths, and overlapping paths
   (batched departures under the same subtree) share their upper
   levels — the same saving batched LKH gets from formula (12). *)
let propagate_batch t changed_leaves =
  let dirty = Hashtbl.create 32 in
  let rec mark n =
    if (not (Hashtbl.mem dirty n.id)) && Hashtbl.mem t.nodes n.id then begin
      Hashtbl.add dirty n.id n;
      match n.parent with Some p -> mark p | None -> ()
    end
  in
  List.iter (fun (leaf : node) -> if Hashtbl.mem t.nodes leaf.id then mark leaf) changed_leaves;
  Hashtbl.iter
    (fun _ n ->
      match sibling_of n with
      | Some sib ->
          deliver_blind t ~audience:sib ~node:n;
          t.last_broadcast <- t.last_broadcast + 1
      | None -> ())
    dirty

let bootstrap_joiner t m =
  let view = refresh_view t m in
  let spec = view.v_path in
  t.last_unicast <- t.last_unicast + List.length spec;
  List.iter
    (fun (_, sib_id) ->
      match Hashtbl.find_opt t.nodes sib_id with
      | Some sib -> Hashtbl.replace view.v_blinded sib_id (blind sib.secret)
      | None -> ())
    spec

let check_batch_args t ~departed ~joined =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m then invalid_arg "Oft.batch: duplicate departure";
      Hashtbl.add seen m ();
      if not (is_member t m) then
        invalid_arg (Printf.sprintf "Oft.batch: %d is not a member" m))
    departed;
  let seen_j = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen_j m then invalid_arg "Oft.batch: duplicate join";
      Hashtbl.add seen_j m ();
      if is_member t m && not (Hashtbl.mem seen m) then
        invalid_arg (Printf.sprintf "Oft.batch: %d is already a member" m))
    joined

let batch t ~departed ~joined =
  check_batch_args t ~departed ~joined;
  t.last_broadcast <- 0;
  t.last_unicast <- 0;
  let changed = ref [] and scopes = ref [] in
  List.iter
    (fun m ->
      let refreshed, scope = remove_structural t m in
      (match refreshed with Some leaf -> changed := leaf :: !changed | None -> ());
      match scope with Some sc -> scopes := sc :: !scopes | None -> ())
    departed;
  let joiner_leaves =
    List.map
      (fun m ->
        let leaf, scope = insert_structural t m in
        changed := leaf :: !changed;
        (match scope with Some sc -> scopes := sc :: !scopes | None -> ());
        m)
      joined
  in
  propagate_batch t !changed;
  (* Shape refresh for members around every structural change. *)
  let refreshed_members = Hashtbl.create 32 in
  List.iter
    (fun scope ->
      if Hashtbl.mem t.nodes scope.id then
        List.iter
          (fun m' ->
            if not (Hashtbl.mem refreshed_members m') then begin
              Hashtbl.add refreshed_members m' ();
              ignore (refresh_view t m')
            end)
          (collect_members scope []))
    !scopes;
  List.iter (bootstrap_joiner t) joiner_leaves

let join t m =
  if is_member t m then invalid_arg (Printf.sprintf "Oft.join: %d is a member" m);
  batch t ~departed:[] ~joined:[ m ]

let leave t m =
  if not (is_member t m) then invalid_arg (Printf.sprintf "Oft.leave: %d is not a member" m);
  batch t ~departed:[ m ] ~joined:[]

let view t m =
  match Hashtbl.find_opt t.views m with
  | None -> raise Not_found
  | Some v ->
      {
        v_member = m;
        v_secret = Bytes.copy v.v_secret;
        v_blinded = Hashtbl.copy v.v_blinded;
        v_path = v.v_path;
      }

let evicted_view t m = Hashtbl.find_opt t.evicted m

let compute_root v =
  let rec go x = function
    | [] -> Some x
    | (_, sib_id) :: rest -> (
        match Hashtbl.find_opt v.v_blinded sib_id with
        | None -> None
        | Some b -> go (mix (blind x) b) rest)
  in
  go v.v_secret v.v_path

let check t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec walk n =
    match n.children with
    | None ->
        if n.member = None then fail "leaf %d without member" n.id
        else if n.size <> 1 then fail "leaf %d size %d" n.id n.size
        else Ok ()
    | Some (l, r) ->
        if n.size <> l.size + r.size then fail "node %d size mismatch" n.id
        else if not (Bytes.equal n.secret (mix (blind l.secret) (blind r.secret))) then
          fail "node %d secret is not derived from its children" n.id
        else begin
          match walk l with Error _ as e -> e | Ok () -> walk r
        end
  in
  match t.root with
  | None -> if Hashtbl.length t.leaves = 0 then Ok () else Error "members without a tree"
  | Some root -> (
      match walk root with
      | Error _ as e -> e
      | Ok () ->
          let bad =
            Hashtbl.fold
              (fun m v acc ->
                match compute_root v with
                | Some x when Bytes.equal x root.secret -> acc
                | _ -> m :: acc)
              t.views []
          in
          if bad = [] then Ok ()
          else fail "members %s cannot compute the root"
                 (String.concat "," (List.map string_of_int bad)))
