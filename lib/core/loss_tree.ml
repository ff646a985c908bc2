module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree
module Rekey_msg = Gkm_lkh.Rekey_msg
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Span = Gkm_obs.Span

(* Same metric names as Scheme: the rekeying engines are alternative
   drivers of the same counters. The per-band population gauges are
   this organization's own. *)
let m_rekeys = Metrics.Counter.v "rekey.count"
let m_keys_encrypted = Metrics.Counter.v "rekey.keys_encrypted"
let m_batch_joins = Metrics.Histogram.v "rekey.batch_join_size"
let m_batch_evicts = Metrics.Histogram.v "rekey.batch_evict_size"

type assignment = By_loss of float list | Random of int

type config = { degree : int; seed : int; assignment : assignment }

let two_band ?(degree = 4) ?(seed = 0) ~threshold () =
  { degree; seed; assignment = By_loss [ threshold ] }

type t = {
  cfg : config;
  keys_mode : Keytree.mode;
  rng : Prng.t;
  trees : Keytree.t array;
  band_gauges : Metrics.Gauge.t array Lazy.t; (* forced only when obs is on *)
  band_of : (int, int) Hashtbl.t; (* member -> band *)
  mutable next_random : int;
  mutable interval : int;
  mutable dek : Key.t option;
  mutable pending_joins : (int * int * Key.t) list; (* member, band, key; reversed *)
  mutable pending_departs : int list;
  mutable placements : (int * int) list;
  mutable cumulative : int;
  mutable last_cost : int;
}

let dek_node = Scheme.dek_node

let create ?(keys_mode = Keytree.Wrap) cfg =
  if cfg.degree < 2 then invalid_arg "Loss_tree.create: degree must be >= 2";
  let n_bands =
    match cfg.assignment with
    | By_loss thresholds ->
        if thresholds = [] then invalid_arg "Loss_tree.create: no thresholds";
        let rec sorted = function
          | a :: (b :: _ as tl) -> a < b && sorted tl
          | _ -> true
        in
        if not (sorted thresholds) then
          invalid_arg "Loss_tree.create: thresholds must be strictly ascending";
        List.length thresholds + 1
    | Random k ->
        if k < 1 then invalid_arg "Loss_tree.create: need at least one tree";
        k
  in
  let rng = Prng.create cfg.seed in
  let trees =
    Array.init n_bands (fun i ->
        Keytree.create ~id_base:(i * 100_000_000) ~mode:keys_mode ~degree:cfg.degree
          (Prng.split rng))
  in
  {
    cfg;
    keys_mode;
    rng;
    trees;
    band_gauges =
      lazy
        (Array.init n_bands (fun i ->
             Metrics.Gauge.v (Printf.sprintf "rekey.band_size.%d" i)));
    band_of = Hashtbl.create 256;
    next_random = 0;
    interval = 0;
    dek = None;
    pending_joins = [];
    pending_departs = [];
    placements = [];
    cumulative = 0;
    last_cost = 0;
  }

let n_bands t = Array.length t.trees
let keys_mode t = t.keys_mode

let band_of_loss t loss =
  match t.cfg.assignment with
  | Random _ -> invalid_arg "Loss_tree.band_of_loss: random assignment has no loss bands"
  | By_loss thresholds ->
      let rec find i = function
        | [] -> i
        | th :: tl -> if loss <= th then i else find (i + 1) tl
      in
      find 0 thresholds

let band_of_member t m =
  match Hashtbl.find_opt t.band_of m with Some b -> b | None -> raise Not_found

let band_sizes t = Array.map Keytree.size t.trees
let size t = Array.fold_left (fun acc tr -> acc + Keytree.size tr) 0 t.trees
let is_member t m = Hashtbl.mem t.band_of m
let is_pending_join t m = List.exists (fun (j, _, _) -> j = m) t.pending_joins

let register t ~member ~loss =
  if is_member t member then
    invalid_arg (Printf.sprintf "Loss_tree.register: %d is a member" member);
  if is_pending_join t member then
    invalid_arg (Printf.sprintf "Loss_tree.register: %d already pending" member);
  let band =
    match t.cfg.assignment with
    | By_loss _ -> band_of_loss t loss
    | Random k ->
        let b = t.next_random in
        t.next_random <- (t.next_random + 1) mod k;
        b
  in
  let key = Key.fresh t.rng in
  t.pending_joins <- (member, band, key) :: t.pending_joins;
  key

let enqueue_departure t m =
  if is_pending_join t m then
    t.pending_joins <- List.filter (fun (j, _, _) -> j <> m) t.pending_joins
  else if not (is_member t m) then
    invalid_arg (Printf.sprintf "Loss_tree.enqueue_departure: %d is not a member" m)
  else if List.mem m t.pending_departs then
    invalid_arg (Printf.sprintf "Loss_tree.enqueue_departure: %d already departing" m)
  else t.pending_departs <- m :: t.pending_departs

let entries_of_updates t ~shift updates =
  let msg = Rekey_msg.of_updates ~epoch:t.interval ~root_node:0 updates in
  List.map (fun (e : Rekey_msg.entry) -> { e with level = e.level + shift }) msg.entries

let dek_wraps t dek =
  Array.to_list t.trees
  |> List.filter_map (fun tree ->
         match Keytree.root_id tree with
         | None -> None
         | Some root ->
             Some
               {
                 Rekey_msg.target_node = dek_node;
                 target_version = t.interval;
                 level = 0;
                 wrapped_under = root;
                 receivers = Keytree.size tree;
                 ciphertext = Key.wrap ~kek:(Option.get (Keytree.group_key tree)) dek;
               })

let observe_bands t =
  if Obs.enabled () then begin
    let gauges = Lazy.force t.band_gauges in
    Array.iteri
      (fun band tree ->
        Metrics.Gauge.set gauges.(band) (float_of_int (Keytree.size tree)))
      t.trees
  end

let rekey t =
  Span.with_span "rekey.build" @@ fun () ->
  if t.pending_joins = [] && t.pending_departs = [] then begin
    t.interval <- t.interval + 1;
    t.last_cost <- 0;
    None
  end
  else begin
    t.interval <- t.interval + 1;
    let joins = List.rev t.pending_joins in
    let departs = List.rev t.pending_departs in
    if Obs.enabled () then begin
      Metrics.Histogram.observe m_batch_joins (float_of_int (List.length joins));
      Metrics.Histogram.observe m_batch_evicts (float_of_int (List.length departs))
    end;
    t.pending_joins <- [];
    t.pending_departs <- [];
    t.placements <- [];
    let per_band_joins = Array.make (n_bands t) [] in
    List.iter
      (fun (m, band, key) -> per_band_joins.(band) <- (m, key) :: per_band_joins.(band))
      joins;
    let per_band_departs = Array.make (n_bands t) [] in
    List.iter
      (fun m ->
        let band = band_of_member t m in
        per_band_departs.(band) <- m :: per_band_departs.(band))
      departs;
    let all_updates =
      Array.to_list
        (Array.mapi
           (fun band tree ->
             Keytree.batch_update tree ~departed:per_band_departs.(band)
               ~joined:(List.rev per_band_joins.(band)))
           t.trees)
      |> List.concat
    in
    List.iter (fun m -> Hashtbl.remove t.band_of m) departs;
    List.iter (fun (m, band, _) -> Hashtbl.replace t.band_of m band) joins;
    Array.iteri
      (fun band tree ->
        List.iter
          (fun (m, _) ->
            match Keytree.path tree m with
            | (leaf, _) :: _ -> t.placements <- (m, leaf) :: t.placements
            | [] -> ())
          per_band_joins.(band))
      t.trees;
    let live = Array.to_list t.trees |> List.filter (fun tr -> Keytree.size tr > 0) in
    let finish ~root_node entries =
      let cost = List.length entries in
      t.cumulative <- t.cumulative + cost;
      t.last_cost <- cost;
      if Obs.enabled () then begin
        Metrics.Counter.incr m_rekeys;
        Metrics.Counter.add m_keys_encrypted cost;
        observe_bands t
      end;
      Some { Rekey_msg.epoch = t.interval; root_node; entries }
    in
    match live with
    | [] ->
        t.dek <- None;
        finish ~root_node:dek_node []
    | [ only ] ->
        t.dek <- None;
        finish
          ~root_node:(Option.get (Keytree.root_id only))
          (entries_of_updates t ~shift:0 all_updates)
    | _ :: _ :: _ ->
        let dek = Key.fresh t.rng in
        t.dek <- Some dek;
        let entries = entries_of_updates t ~shift:1 all_updates @ dek_wraps t dek in
        finish ~root_node:dek_node entries
  end

let group_key t =
  match t.dek with
  | Some k -> Some k
  | None -> (
      let live = Array.to_list t.trees |> List.filter (fun tr -> Keytree.size tr > 0) in
      match live with [ only ] -> Keytree.group_key only | _ -> None)

let root_node t =
  match t.dek with
  | Some _ -> Some dek_node
  | None -> (
      match Array.to_list t.trees |> List.filter (fun tr -> Keytree.size tr > 0) with
      | [ only ] -> Keytree.root_id only
      | [] | _ :: _ :: _ -> None)

let interval t = t.interval
let trees t = Array.to_list t.trees
let placements t = t.placements
let cumulative_keys t = t.cumulative
let last_cost t = t.last_cost

(* ------------------------------------------------------------------ *)
(* Catch-up unicast and crash snapshots                                *)

let member_path t m =
  let band = band_of_member t m in
  let path = Keytree.path t.trees.(band) m in
  match t.dek with Some dek -> path @ [ (dek_node, dek) ] | None -> path

let snap_magic = "GKLT"

(* v1: wrap-mode layout, preserved byte-for-byte. v2 inserts one
   keys-mode byte after the version and is only emitted in [Derived]
   mode. *)
let snap_version = 1
let snap_version_derived = 2

let snapshot t =
  let open Gkm_crypto.Codec in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snap_magic;
  (match t.keys_mode with
  | Keytree.Wrap -> add_u8 buf snap_version
  | Keytree.Derived ->
      add_u8 buf snap_version_derived;
      add_u8 buf 1);
  add_i32 buf t.cfg.degree;
  add_i64 buf (Int64.of_int t.cfg.seed);
  (match t.cfg.assignment with
  | By_loss thresholds ->
      add_u8 buf 0;
      add_list buf add_f64 thresholds
  | Random k ->
      add_u8 buf 1;
      add_i32 buf k);
  add_i32 buf t.next_random;
  add_i32 buf t.interval;
  add_i64 buf (Prng.save t.rng);
  add_opt buf add_key t.dek;
  add_list buf
    (fun buf (m, band, key) ->
      add_i32 buf m;
      add_i32 buf band;
      add_key buf key)
    (List.rev t.pending_joins);
  add_list buf add_i32 (List.rev t.pending_departs);
  add_list buf
    (fun buf (m, leaf) ->
      add_i32 buf m;
      add_i32 buf leaf)
    t.placements;
  add_i32 buf t.cumulative;
  add_i32 buf t.last_cost;
  Array.iter (fun tree -> add_var32 buf (Keytree.snapshot tree)) t.trees;
  add_list buf
    (fun buf (m, band) ->
      add_i32 buf m;
      add_i32 buf band)
    (Hashtbl.fold (fun m band acc -> (m, band) :: acc) t.band_of [] |> List.sort compare);
  Buffer.to_bytes buf

let restore blob =
  let open Gkm_crypto.Codec in
  parse blob @@ fun r ->
  magic r snap_magic;
  let version = u8 r in
  if version <> snap_version && version <> snap_version_derived then
    corrupt "unsupported loss-tree snapshot version %d" version;
  let keys_mode =
    if version = snap_version then Keytree.Wrap
    else
      match u8 r with
      | 0 -> Keytree.Wrap
      | 1 -> Keytree.Derived
      | n -> corrupt "bad keys-mode byte %d" n
  in
  let degree = i32 r in
  let seed = Int64.to_int (i64 r) in
  let assignment =
    match u8 r with
    | 0 -> By_loss (list r ~min_item_size:8 f64)
    | 1 -> Random (i32 r)
    | n -> corrupt "bad assignment tag %d" n
  in
  let next_random = i32 r in
  let interval = i32 r in
  let rng = Prng.restore (i64 r) in
  let dek = opt r key in
  let pending_joins =
    list r ~min_item_size:(8 + Key.size) (fun r ->
        let m = i32 r in
        let band = i32 r in
        let k = key r in
        (m, band, k))
  in
  let pending_departs = list r ~min_item_size:4 i32 in
  let placements =
    list r ~min_item_size:8 (fun r ->
        let m = i32 r in
        let leaf = i32 r in
        (m, leaf))
  in
  let cumulative = i32 r in
  let last_cost = i32 r in
  let n_bands =
    match assignment with By_loss th -> List.length th + 1 | Random k -> k
  in
  let read_tree r =
    match Keytree.restore (var32 r) with
    | Ok tree -> tree
    | Error e -> corrupt "bad tree blob: %s" e
  in
  let trees = Array.of_list (items r ~min_item_size:4 n_bands read_tree) in
  let band_of = Hashtbl.create 256 in
  list r ~min_item_size:8 (fun r ->
      let m = i32 r in
      let band = i32 r in
      (m, band))
  |> List.iter (fun (m, band) -> Hashtbl.replace band_of m band);
  {
    cfg = { degree; seed; assignment };
    keys_mode;
    rng;
    trees;
    band_gauges =
      lazy
        (Array.init n_bands (fun i ->
             Metrics.Gauge.v (Printf.sprintf "rekey.band_size.%d" i)));
    band_of;
    next_random;
    interval;
    dek;
    pending_joins = List.rev pending_joins;
    pending_departs = List.rev pending_departs;
    placements;
    cumulative;
    last_cost;
  }
