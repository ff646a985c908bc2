module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree
module Rekey_msg = Gkm_lkh.Rekey_msg

let src = Logs.Src.create "gkm.scheme" ~doc:"Two-partition rekeying schemes"

module Log = (val Logs.src_log src : Logs.LOG)

module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Span = Gkm_obs.Span

(* [rekey.count] is counted once per group rekey by [Organization]: a
   banded organization runs several schemes per interval. *)
let m_keys_encrypted = Metrics.Counter.v "rekey.keys_encrypted"
let m_tree_height = Metrics.Gauge.v "rekey.tree_height"
let m_batch_joins = Metrics.Histogram.v "rekey.batch_join_size"
let m_batch_evicts = Metrics.Histogram.v "rekey.batch_evict_size"

type kind = One_keytree | Qt | Tt | Pt

let kind_name = function
  | One_keytree -> "one-keytree"
  | Qt -> "QT-scheme"
  | Tt -> "TT-scheme"
  | Pt -> "PT-scheme"

let all_kinds = [ One_keytree; Qt; Tt; Pt ]

type member_class = Short | Long

type config = { kind : kind; degree : int; s_period : int; seed : int }

let default_config kind = { kind; degree = 4; s_period = 10; seed = 0 }

let dek_node = -1
let synthetic_leaf m = -(m + 2)

(* Disjoint node-id ranges for the (at most two) trees of a scheme. *)
let s_id_base = 0
let l_id_base = 1_000_000_000

type queue_entry = { qkey : Key.t; joined : int }

type store =
  | One of Keytree.t
  | Queue_tree of { queue : (int, queue_entry) Hashtbl.t; l : Keytree.t }
  | Tree_tree of { s : Keytree.t; l : Keytree.t; s_joined : (int, int) Hashtbl.t }
  | Class_trees of { s : Keytree.t; l : Keytree.t }

type t = {
  cfg : config;
  rng : Prng.t;
  store : store;
  dek_id : int; (* node id carrying this scheme's DEK (see {!create}) *)
  mutable s_period : int; (* tunable at runtime; starts at cfg.s_period *)
  mutable interval : int;
  mutable dek : Key.t option; (* Some = synthetic DEK above the trees *)
  (* Pending queues: a reversed list for FIFO emission plus a hash
     table for O(1) membership. Cancelling a join only drops the table
     entry; the list entry is stale and skipped at drain (an entry is
     live iff the table holds the same key cell, by physical
     equality). *)
  mutable pending_joins : (int * member_class * Key.t) list; (* reversed *)
  join_tbl : (int, Key.t) Hashtbl.t; (* live pending joins *)
  mutable pending_departs : int list; (* reversed, no stales *)
  dep_tbl : (int, unit) Hashtbl.t;
  mutable placements : (int * int) list;
  mutable cumulative : int;
  mutable last_cost : int;
}

let create ?(s_base = s_id_base) ?(l_base = l_id_base) ?(dek_id = dek_node) cfg =
  if cfg.degree < 2 then invalid_arg "Scheme.create: degree must be >= 2";
  if cfg.s_period < 0 then invalid_arg "Scheme.create: negative S-period";
  if dek_id >= 0 then invalid_arg "Scheme.create: the DEK node id must be negative";
  let rng = Prng.create cfg.seed in
  let tree base = Keytree.create ~id_base:base ~degree:cfg.degree (Prng.split rng) in
  let store =
    match cfg.kind with
    | One_keytree -> One (tree s_base)
    | Qt -> Queue_tree { queue = Hashtbl.create 64; l = tree l_base }
    | Tt -> Tree_tree { s = tree s_base; l = tree l_base; s_joined = Hashtbl.create 64 }
    | Pt -> Class_trees { s = tree s_base; l = tree l_base }
  in
  {
    cfg;
    rng;
    store;
    dek_id;
    s_period = cfg.s_period;
    interval = 0;
    dek = None;
    pending_joins = [];
    join_tbl = Hashtbl.create 64;
    pending_departs = [];
    dep_tbl = Hashtbl.create 64;
    placements = [];
    cumulative = 0;
    last_cost = 0;
  }

let config t = t.cfg
let interval t = t.interval

let location t m =
  match t.store with
  | One tree -> if Keytree.mem tree m then `L_tree else `Absent
  | Queue_tree { queue; l } ->
      if Hashtbl.mem queue m then `Queue else if Keytree.mem l m then `L_tree else `Absent
  | Tree_tree { s; l; _ } | Class_trees { s; l } ->
      if Keytree.mem s m then `S_tree else if Keytree.mem l m then `L_tree else `Absent

let is_member t m = location t m <> `Absent

let s_size t =
  match t.store with
  | One _ -> 0
  | Queue_tree { queue; _ } -> Hashtbl.length queue
  | Tree_tree { s; _ } | Class_trees { s; _ } -> Keytree.size s

let l_size t =
  match t.store with
  | One tree -> Keytree.size tree
  | Queue_tree { l; _ } | Tree_tree { l; _ } | Class_trees { l; _ } -> Keytree.size l

let size t = s_size t + l_size t

let trees t =
  match t.store with
  | One tree -> [ tree ]
  | Queue_tree { l; _ } -> [ l ]
  | Tree_tree { s; l; _ } | Class_trees { s; l } -> [ s; l ]

let is_pending_join t m = Hashtbl.mem t.join_tbl m

let live_joins t =
  List.filter
    (fun (m, _, k) ->
      match Hashtbl.find_opt t.join_tbl m with Some k' -> k' == k | None -> false)
    t.pending_joins

let register t ~member ~cls =
  if is_member t member then
    invalid_arg (Printf.sprintf "Scheme.register: %d is a member" member);
  if is_pending_join t member then
    invalid_arg (Printf.sprintf "Scheme.register: %d already pending" member);
  let key = Key.fresh t.rng in
  t.pending_joins <- (member, cls, key) :: t.pending_joins;
  Hashtbl.replace t.join_tbl member key;
  key

let enqueue_departure t m =
  if Hashtbl.mem t.dep_tbl m then
    invalid_arg (Printf.sprintf "Scheme.enqueue_departure: %d already departing" m)
  else if is_pending_join t m then Hashtbl.remove t.join_tbl m
  else if not (is_member t m) then
    invalid_arg (Printf.sprintf "Scheme.enqueue_departure: %d is not a member" m)
  else begin
    t.pending_departs <- m :: t.pending_departs;
    Hashtbl.replace t.dep_tbl m ()
  end

(* Flatten tree updates into message entries, pushing levels down by
   [shift] when the tree roots hang beneath a synthetic DEK node. *)
let entries_of_updates t ~shift updates =
  let msg = Rekey_msg.of_updates ~epoch:t.interval ~root_node:0 updates in
  List.map (fun (e : Rekey_msg.entry) -> { e with level = e.level + shift }) msg.entries

(* A fresh DEK, installed, with the check that all its wraps share. *)
let fresh_dek t =
  let dek = Key.fresh t.rng in
  t.dek <- Some dek;
  (dek, Key.check dek)

let dek_entry t ~under_node ~under_key ~receivers (dek, check) =
  {
    Rekey_msg.target_node = t.dek_id;
    target_version = t.interval;
    level = 0;
    wrapped_under = under_node;
    receivers;
    ciphertext = Key.wrap_checked_with (Key.cipher under_key) ~check dek;
  }

let record_placements t tree members =
  List.iter
    (fun m ->
      match Keytree.path tree m with
      | (leaf, _) :: _ -> t.placements <- (m, leaf) :: t.placements
      | [] -> ())
    members

let root_wrap t tree dek =
  match Keytree.root_id tree with
  | None -> []
  | Some root ->
      [
        dek_entry t ~under_node:root
          ~under_key:(Option.get (Keytree.group_key tree))
          ~receivers:(Keytree.size tree) dek;
      ]

let finish t ~root_node entries =
  let cost = List.length entries in
  t.cumulative <- t.cumulative + cost;
  t.last_cost <- cost;
  Log.debug (fun m ->
      m "%s interval %d: S=%d L=%d, %d encrypted keys" (kind_name t.cfg.kind) t.interval
        (s_size t) (l_size t) cost);
  Some { Rekey_msg.epoch = t.interval; root_node; entries }

(* ------------------------------------------------------------------ *)
(* Per-kind rekey procedures                                           *)

let rekey_one t tree ~joins ~departs =
  let joined = List.map (fun (m, _, k) -> (m, k)) joins in
  let updates = Keytree.batch_update tree ~departed:departs ~joined in
  record_placements t tree (List.map fst joined);
  let entries = entries_of_updates t ~shift:0 updates in
  let root_node = Option.value ~default:t.dek_id (Keytree.root_id tree) in
  finish t ~root_node entries

let rekey_qt t queue l ~joins ~departs =
  let s_departs = List.filter (Hashtbl.mem queue) departs in
  let l_departs = List.filter (fun m -> not (Hashtbl.mem queue m)) departs in
  let direct = t.s_period = 0 in
  let migrations =
    if direct then []
    else
      Hashtbl.fold
        (fun m entry acc ->
          if t.interval - entry.joined >= t.s_period && not (List.mem m s_departs) then
            (m, entry.qkey) :: acc
          else acc)
        queue []
  in
  let l_joined = migrations @ if direct then List.map (fun (m, _, k) -> (m, k)) joins else [] in
  let l_updates = Keytree.batch_update l ~departed:l_departs ~joined:l_joined in
  List.iter (fun (m, _) -> Hashtbl.remove queue m) migrations;
  List.iter (Hashtbl.remove queue) s_departs;
  if not direct then
    List.iter
      (fun (m, _, k) -> Hashtbl.replace queue m { qkey = k; joined = t.interval })
      joins;
  record_placements t l (List.map fst l_joined);
  if not direct then
    List.iter (fun (m, _, _) -> t.placements <- (m, synthetic_leaf m) :: t.placements) joins;
  let tree_entries = entries_of_updates t ~shift:1 l_updates in
  let queue_nonempty = Hashtbl.length queue > 0 in
  let old_dek = t.dek in
  if not queue_nonempty then begin
    (* Single-partition state: the L root is the DEK. *)
    t.dek <- None;
    let root_node = Option.value ~default:t.dek_id (Keytree.root_id l) in
    (* Drop the level shift: there is no synthetic DEK above. *)
    let entries = List.map (fun (e : Rekey_msg.entry) -> { e with level = e.level - 1 }) tree_entries in
    finish t ~root_node entries
  end
  else begin
    let dek_entries =
      if departs <> [] then begin
        (* Eviction: fresh DEK to every queue member individually plus
           the L-tree root — the queue's Ns-keys cost (Section 3.2). *)
        let dek = fresh_dek t in
        let queue_wraps =
          Hashtbl.fold
            (fun m entry acc ->
              dek_entry t ~under_node:(synthetic_leaf m) ~under_key:entry.qkey ~receivers:1 dek
              :: acc)
            queue []
        in
        queue_wraps @ root_wrap t l dek
      end
      else if joins <> [] then begin
        (* Join-only: new DEK under the old group key (one entry) plus
           one entry per fresh queue joiner (paper Section 3.2 phase 1). *)
        let dek = fresh_dek t in
        let old_wrap =
          match old_dek with
          | Some old_key ->
              [ dek_entry t ~under_node:t.dek_id ~under_key:old_key ~receivers:(size t) dek ]
          | None -> root_wrap t l dek
        in
        let joiner_wraps =
          List.filter_map
            (fun (m, _, k) ->
              if Hashtbl.mem queue m then
                Some (dek_entry t ~under_node:(synthetic_leaf m) ~under_key:k ~receivers:1 dek)
              else None)
            joins
        in
        old_wrap @ joiner_wraps
      end
      else begin
        (* Migration-only: membership unchanged, the DEK survives; but
           if the scheme was in single-partition state it must hoist
           the DEK above the refreshed L root. *)
        match old_dek with
        | Some _ -> []
        | None ->
            let dek = fresh_dek t in
            Hashtbl.fold
              (fun m entry acc ->
                dek_entry t ~under_node:(synthetic_leaf m) ~under_key:entry.qkey ~receivers:1 dek
                :: acc)
              queue []
            @ root_wrap t l dek
      end
    in
    finish t ~root_node:t.dek_id (tree_entries @ dek_entries)
  end

(* Shared by TT and PT: two trees under a DEK. [s_updates]/[l_updates]
   already applied; emit entries and manage the DEK. *)
let rekey_forest t s l ~changed ~s_updates ~l_updates =
  let live = List.filter (fun tr -> Keytree.size tr > 0) [ s; l ] in
  match live with
  | [] ->
      t.dek <- None;
      t.last_cost <- 0;
      finish t ~root_node:t.dek_id []
  | [ only ] ->
      t.dek <- None;
      let entries = entries_of_updates t ~shift:0 (s_updates @ l_updates) in
      finish t ~root_node:(Option.get (Keytree.root_id only)) entries
  | _ :: _ :: _ ->
      let tree_entries = entries_of_updates t ~shift:1 (s_updates @ l_updates) in
      let dek_entries =
        if changed || t.dek = None then begin
          let dek = fresh_dek t in
          root_wrap t s dek @ root_wrap t l dek
        end
        else []
      in
      finish t ~root_node:t.dek_id (tree_entries @ dek_entries)

let rekey_tt t s l s_joined ~joins ~departs =
  let s_departs = List.filter (Keytree.mem s) departs in
  let l_departs = List.filter (Keytree.mem l) departs in
  let direct = t.s_period = 0 in
  let migrations =
    if direct then []
    else
      Hashtbl.fold
        (fun m joined acc ->
          if
            t.interval - joined >= t.s_period
            && Keytree.mem s m
            && not (List.mem m s_departs)
          then (m, Keytree.leaf_key s m) :: acc
          else acc)
        s_joined []
  in
  let s_joins = if direct then [] else List.map (fun (m, _, k) -> (m, k)) joins in
  let l_joins = migrations @ if direct then List.map (fun (m, _, k) -> (m, k)) joins else [] in
  let s_updates =
    Keytree.batch_update s ~departed:(s_departs @ List.map fst migrations) ~joined:s_joins
  in
  let l_updates = Keytree.batch_update l ~departed:l_departs ~joined:l_joins in
  List.iter (fun (m, _) -> Hashtbl.remove s_joined m) migrations;
  List.iter (fun m -> Hashtbl.remove s_joined m) s_departs;
  List.iter (fun (m, _) -> Hashtbl.replace s_joined m t.interval) s_joins;
  record_placements t s (List.map fst s_joins);
  record_placements t l (List.map fst l_joins);
  rekey_forest t s l ~changed:(joins <> [] || departs <> []) ~s_updates ~l_updates

let rekey_pt t s l ~joins ~departs =
  let s_departs = List.filter (Keytree.mem s) departs in
  let l_departs = List.filter (Keytree.mem l) departs in
  let s_joins = List.filter_map (fun (m, c, k) -> if c = Short then Some (m, k) else None) joins in
  let l_joins = List.filter_map (fun (m, c, k) -> if c = Long then Some (m, k) else None) joins in
  let s_updates = Keytree.batch_update s ~departed:s_departs ~joined:s_joins in
  let l_updates = Keytree.batch_update l ~departed:l_departs ~joined:l_joins in
  record_placements t s (List.map fst s_joins);
  record_placements t l (List.map fst l_joins);
  rekey_forest t s l ~changed:(joins <> [] || departs <> []) ~s_updates ~l_updates

let migrations_due t =
  if t.s_period = 0 then false
  else
    match t.store with
    | One _ | Class_trees _ -> false
    | Queue_tree { queue; _ } ->
        Hashtbl.fold
          (fun _ entry acc -> acc || t.interval + 1 - entry.joined >= t.s_period)
          queue false
    | Tree_tree { s_joined; _ } ->
        Hashtbl.fold
          (fun _ joined acc -> acc || t.interval + 1 - joined >= t.s_period)
          s_joined false

let rekey t =
  Span.with_span "rekey.build" @@ fun () ->
  let due = migrations_due t in
  if Hashtbl.length t.join_tbl = 0 && t.pending_departs = [] && not due then begin
    t.interval <- t.interval + 1;
    t.last_cost <- 0;
    None
  end
  else begin
    t.interval <- t.interval + 1;
    let joins = List.rev (live_joins t) in
    let departs = List.rev t.pending_departs in
    t.pending_joins <- [];
    Hashtbl.reset t.join_tbl;
    t.pending_departs <- [];
    Hashtbl.reset t.dep_tbl;
    t.placements <- [];
    if Obs.enabled () then begin
      Metrics.Histogram.observe m_batch_joins (float_of_int (List.length joins));
      Metrics.Histogram.observe m_batch_evicts (float_of_int (List.length departs))
    end;
    let msg =
      match t.store with
      | One tree -> rekey_one t tree ~joins ~departs
      | Queue_tree { queue; l } -> rekey_qt t queue l ~joins ~departs
      | Tree_tree { s; l; s_joined } -> rekey_tt t s l s_joined ~joins ~departs
      | Class_trees { s; l } -> rekey_pt t s l ~joins ~departs
    in
    if Obs.enabled () then begin
      Metrics.Counter.add m_keys_encrypted t.last_cost;
      Metrics.Gauge.set m_tree_height
        (float_of_int
           (List.fold_left (fun h tr -> max h (Keytree.height tr)) 0 (trees t)))
    end;
    msg
  end

let group_key t =
  match t.store with
  | One tree -> Keytree.group_key tree
  | Queue_tree { l; _ } -> (
      match t.dek with Some k -> Some k | None -> Keytree.group_key l)
  | Tree_tree { s; l; _ } | Class_trees { s; l } -> (
      match t.dek with
      | Some k -> Some k
      | None -> (
          match (Keytree.group_key s, Keytree.group_key l) with
          | Some k, None | None, Some k -> Some k
          | None, None -> None
          | Some _, Some _ -> t.dek (* unreachable: forest mode sets the DEK *)))

(* The node id currently carrying the group key: the synthetic DEK
   node while one is hoisted, else the root of the single live tree. *)
let root_node t =
  match t.dek with
  | Some _ -> Some t.dek_id
  | None -> (
      match List.filter (fun tr -> Keytree.size tr > 0) (trees t) with
      | [ only ] -> Keytree.root_id only
      | [] | _ :: _ :: _ -> None)

let placements t = t.placements
let cumulative_keys t = t.cumulative
let last_cost t = t.last_cost

let s_period t = t.s_period

let set_s_period t k =
  if k < 0 then invalid_arg "Scheme.set_s_period: negative S-period";
  t.s_period <- k

(* ------------------------------------------------------------------ *)
(* Catch-up unicast and crash snapshots                                *)

let member_path t m =
  let with_dek path =
    match t.dek with Some dek -> path @ [ (t.dek_id, dek) ] | None -> path
  in
  match t.store with
  | One tree -> Keytree.path tree m
  | Queue_tree { queue; l } -> (
      match Hashtbl.find_opt queue m with
      | Some entry -> with_dek [ (synthetic_leaf m, entry.qkey) ]
      | None -> with_dek (Keytree.path l m))
  | Tree_tree { s; l; _ } | Class_trees { s; l } ->
      with_dek (if Keytree.mem s m then Keytree.path s m else Keytree.path l m)

let snap_magic = "GKSC"

let snap_version = 1

let kind_tag = function One_keytree -> 0 | Qt -> 1 | Tt -> 2 | Pt -> 3

let kind_of_tag = function
  | 0 -> One_keytree
  | 1 -> Qt
  | 2 -> Tt
  | 3 -> Pt
  | n -> Gkm_crypto.Codec.corrupt "bad scheme kind tag %d" n

let cls_tag = function Short -> 0 | Long -> 1

let cls_of_tag = function
  | 0 -> Short
  | 1 -> Long
  | n -> Gkm_crypto.Codec.corrupt "bad member-class tag %d" n

let add_tree buf tree = Gkm_crypto.Codec.add_var32 buf (Keytree.snapshot tree)

let read_tree r =
  let open Gkm_crypto.Codec in
  match Keytree.restore (var32 r) with
  | Ok tree -> tree
  | Error e -> corrupt "bad tree blob: %s" e

(* Hash tables are serialized sorted by member id so the blob is a
   pure function of the logical state (not of insertion history). The
   restored tables may therefore fold in a different order than the
   live instance's — entry order inside later rekey messages can
   differ, but key *draws* (and hence the DEK sequence) cannot, since
   every draw count depends only on membership sets and sizes. *)
let sorted_table tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let snapshot t =
  let open Gkm_crypto.Codec in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snap_magic;
  add_u8 buf snap_version;
  add_u8 buf (kind_tag t.cfg.kind);
  add_i32 buf t.cfg.degree;
  add_i32 buf t.cfg.s_period;
  add_i64 buf (Int64.of_int t.cfg.seed);
  add_i32 buf t.dek_id;
  add_i32 buf t.s_period;
  add_i32 buf t.interval;
  add_i64 buf (Prng.save t.rng);
  add_opt buf add_key t.dek;
  add_list buf
    (fun buf (m, cls, key) ->
      add_i32 buf m;
      add_u8 buf (cls_tag cls);
      add_key buf key)
    (List.rev (live_joins t));
  add_list buf add_i32 (List.rev t.pending_departs);
  add_list buf
    (fun buf (m, leaf) ->
      add_i32 buf m;
      (* leaf node ids exceed 2^31 in composed band trees *)
      add_i64 buf (Int64.of_int leaf))
    t.placements;
  add_i32 buf t.cumulative;
  add_i32 buf t.last_cost;
  (match t.store with
  | One tree -> add_tree buf tree
  | Queue_tree { queue; l } ->
      add_list buf
        (fun buf (m, e) ->
          add_i32 buf m;
          add_i32 buf e.joined;
          add_key buf e.qkey)
        (sorted_table queue);
      add_tree buf l
  | Tree_tree { s; l; s_joined } ->
      add_tree buf s;
      add_tree buf l;
      add_list buf
        (fun buf (m, joined) ->
          add_i32 buf m;
          add_i32 buf joined)
        (sorted_table s_joined)
  | Class_trees { s; l } ->
      add_tree buf s;
      add_tree buf l);
  Buffer.to_bytes buf

let restore blob =
  let open Gkm_crypto.Codec in
  parse blob @@ fun r ->
  magic r snap_magic;
  let version = u8 r in
  if version <> snap_version then corrupt "unsupported scheme-snapshot version %d" version;
  let kind = kind_of_tag (u8 r) in
  let degree = i32 r in
  let cfg_s_period = i32 r in
  let seed = Int64.to_int (i64 r) in
  let dek_id = i32 r in
  let live_s_period = i32 r in
  let interval = i32 r in
  let rng = Prng.restore (i64 r) in
  let dek = opt r key in
  let joins =
    list r ~min_item_size:(4 + 1 + Key.size) (fun r ->
        let m = i32 r in
        let cls = cls_of_tag (u8 r) in
        let k = key r in
        (m, cls, k))
  in
  let departs = list r ~min_item_size:4 i32 in
  let placements =
    list r ~min_item_size:12 (fun r ->
        let m = i32 r in
        let leaf = Int64.to_int (i64 r) in
        (m, leaf))
  in
  let cumulative = i32 r in
  let last_cost = i32 r in
  let store =
    match kind with
    | One_keytree -> One (read_tree r)
    | Qt ->
        let entries =
          list r ~min_item_size:(8 + Key.size) (fun r ->
              let m = i32 r in
              let joined = i32 r in
              let qkey = key r in
              (m, { qkey; joined }))
        in
        let queue = Hashtbl.create 64 in
        List.iter (fun (m, e) -> Hashtbl.replace queue m e) entries;
        Queue_tree { queue; l = read_tree r }
    | Tt ->
        let s = read_tree r in
        let l = read_tree r in
        let pairs =
          list r ~min_item_size:8 (fun r ->
              let m = i32 r in
              let joined = i32 r in
              (m, joined))
        in
        let s_joined = Hashtbl.create 64 in
        List.iter (fun (m, j) -> Hashtbl.replace s_joined m j) pairs;
        Tree_tree { s; l; s_joined }
    | Pt ->
        let s = read_tree r in
        Class_trees { s; l = read_tree r }
  in
  (* Share key cells between list and table so every restored pending
     join is live under the physical-equality staleness test. *)
  let join_tbl = Hashtbl.create 64 in
  List.iter (fun (m, _, k) -> Hashtbl.replace join_tbl m k) joins;
  let dep_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace dep_tbl m ()) departs;
  {
    cfg = { kind; degree; s_period = cfg_s_period; seed };
    rng;
    store;
    dek_id;
    s_period = live_s_period;
    interval;
    dek;
    pending_joins = List.rev joins;
    join_tbl;
    pending_departs = List.rev departs;
    dep_tbl;
    placements;
    cumulative;
    last_cost;
  }
