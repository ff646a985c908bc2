module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree

module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics

let src = Logs.Src.create "gkm.server" ~doc:"LKH key server"

module Log = (val Logs.src_log src : Logs.LOG)

let m_rekeys = Metrics.Counter.v "rekey.count"
let m_keys_encrypted = Metrics.Counter.v "rekey.keys_encrypted"
let m_tree_height = Metrics.Gauge.v "rekey.tree_height"
let m_tree_size = Metrics.Gauge.v "rekey.tree_size"
let m_batch_joins = Metrics.Histogram.v "rekey.batch_join_size"
let m_batch_evicts = Metrics.Histogram.v "rekey.batch_evict_size"

type member_id = int

(* The pending batch is a list (for FIFO emission order) mirrored by a
   hash table (for O(1) [register] / [enqueue_departure] /
   [is_enqueued_join], so enqueuing a batch of b members costs O(b),
   not O(b²)). Cancelling an enqueued join removes only the table
   entry; the list entry turns stale and is dropped at drain time. A
   list entry is live iff the table maps its member to the *same* key
   cell (physical equality), which keeps cancel-then-rejoin correct:
   the rejoin allocates a fresh key, so the stale entry can never
   shadow it. *)
type t = {
  tree : Keytree.t;
  rng : Prng.t;
  mutable pending_joins : (member_id * Key.t) list;
      (* reversed arrival order; may contain cancelled (stale) entries *)
  join_tbl : (member_id, Key.t) Hashtbl.t; (* live joins *)
  mutable pending_departures : member_id list; (* reversed order, no stales *)
  dep_tbl : (member_id, unit) Hashtbl.t;
  mutable cumulative_cost : int;
  mutable rekey_count : int;
}

let create ?(degree = 4) ?(keys_mode = Keytree.Wrap) ~seed () =
  let rng = Prng.create seed in
  let tree_rng = Prng.split rng in
  {
    tree = Keytree.create ~mode:keys_mode ~degree tree_rng;
    rng;
    pending_joins = [];
    join_tbl = Hashtbl.create 64;
    pending_departures = [];
    dep_tbl = Hashtbl.create 64;
    cumulative_cost = 0;
    rekey_count = 0;
  }

let degree t = Keytree.degree t.tree
let size t = Keytree.size t.tree
let is_member t m = Keytree.mem t.tree m
let members t = Keytree.members t.tree

let live_joins t =
  List.filter
    (fun (m, k) ->
      match Hashtbl.find_opt t.join_tbl m with Some k' -> k' == k | None -> false)
    t.pending_joins

let pending_joins t = List.rev_map fst (live_joins t)
let pending_departures t = List.rev t.pending_departures
let is_enqueued_join t m = Hashtbl.mem t.join_tbl m

let register t m =
  if is_member t m then invalid_arg (Printf.sprintf "Server.register: %d is a member" m);
  if is_enqueued_join t m then
    invalid_arg (Printf.sprintf "Server.register: %d already enqueued" m);
  let key = Key.fresh t.rng in
  t.pending_joins <- (m, key) :: t.pending_joins;
  Hashtbl.replace t.join_tbl m key;
  key

let enqueue_departure t m =
  if Hashtbl.mem t.dep_tbl m then
    invalid_arg (Printf.sprintf "Server.enqueue_departure: %d already departing" m)
  else if is_enqueued_join t m then
    (* The member never entered the tree: cancel its admission. The
       list entry goes stale and is skipped when the batch drains. *)
    Hashtbl.remove t.join_tbl m
  else if not (is_member t m) then
    invalid_arg (Printf.sprintf "Server.enqueue_departure: %d is not a member" m)
  else begin
    t.pending_departures <- m :: t.pending_departures;
    Hashtbl.replace t.dep_tbl m ()
  end

let emit t updates =
  match Keytree.root_id t.tree with
  | None -> None
  | Some root_node ->
      let msg = Rekey_msg.of_updates ~epoch:(Keytree.epoch t.tree) ~root_node updates in
      t.cumulative_cost <- t.cumulative_cost + Rekey_msg.size_keys msg;
      t.rekey_count <- t.rekey_count + 1;
      if Obs.enabled () then begin
        Metrics.Counter.incr m_rekeys;
        Metrics.Counter.add m_keys_encrypted (Rekey_msg.size_keys msg);
        Metrics.Gauge.set m_tree_height (float_of_int (Keytree.height t.tree));
        Metrics.Gauge.set m_tree_size (float_of_int (Keytree.size t.tree))
      end;
      Log.debug (fun m ->
          m "rekey #%d: %d members, %d encrypted keys" t.rekey_count (Keytree.size t.tree)
            (Rekey_msg.size_keys msg));
      Some msg

let rekey t =
  if Hashtbl.length t.join_tbl = 0 && t.pending_departures = [] then None
  else begin
    let departed = List.rev t.pending_departures in
    let joined = List.rev (live_joins t) in
    t.pending_departures <- [];
    t.pending_joins <- [];
    Hashtbl.reset t.join_tbl;
    Hashtbl.reset t.dep_tbl;
    if Obs.enabled () then begin
      Metrics.Histogram.observe m_batch_joins (float_of_int (List.length joined));
      Metrics.Histogram.observe m_batch_evicts (float_of_int (List.length departed))
    end;
    let updates = Keytree.batch_update t.tree ~departed ~joined in
    emit t updates
  end

let join_now t m =
  if is_member t m then invalid_arg (Printf.sprintf "Server.join_now: %d is a member" m);
  if is_enqueued_join t m then
    invalid_arg (Printf.sprintf "Server.join_now: %d is enqueued" m);
  let key = Key.fresh t.rng in
  let updates = Keytree.batch_update t.tree ~departed:[] ~joined:[ (m, key) ] in
  match emit t updates with
  | Some msg -> (key, msg)
  | None -> assert false (* the tree is non-empty right after a join *)

let depart_now t m =
  if not (is_member t m) then
    invalid_arg (Printf.sprintf "Server.depart_now: %d is not a member" m);
  let updates = Keytree.batch_update t.tree ~departed:[ m ] ~joined:[] in
  match emit t updates with
  | Some msg -> msg
  | None ->
      (* The tree emptied: synthesize an empty message for uniformity. *)
      t.rekey_count <- t.rekey_count + 1;
      { Rekey_msg.epoch = Keytree.epoch t.tree; root_node = -1; entries = [] }

let group_key t = Keytree.group_key t.tree
let member_path t m = Keytree.path t.tree m
let tree t = t.tree
let cumulative_cost t = t.cumulative_cost
let rekey_count t = t.rekey_count

(* ------------------------------------------------------------------ *)
(* Sealed snapshots                                                    *)

let seal_magic = "GKSS"
let state_magic = "GKSV"
let state_version = 1

let enc_key_of storage_key = Key.derive storage_key Gkm_crypto.Labels.snapshot_enc
let mac_key_of storage_key = Key.derive storage_key Gkm_crypto.Labels.snapshot_mac

let serialize_state t =
  let open Gkm_crypto.Codec in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf state_magic;
  add_u8 buf state_version;
  add_i64 buf (Prng.save t.rng);
  add_i32 buf t.cumulative_cost;
  add_i32 buf t.rekey_count;
  add_list buf
    (fun buf (m, key) ->
      add_i32 buf m;
      add_key buf key)
    (List.rev (live_joins t));
  add_list buf add_i32 (List.rev t.pending_departures);
  add_var32 buf (Keytree.snapshot t.tree);
  Buffer.to_bytes buf

let deserialize_state blob =
  let open Gkm_crypto.Codec in
  parse blob @@ fun r ->
  magic r state_magic;
  if u8 r <> state_version then corrupt "unsupported server-state version";
  let rng = Prng.restore (i64 r) in
  let cumulative_cost = i32 r in
  let rekey_count = i32 r in
  let joins =
    list r ~min_item_size:(4 + Key.size) (fun r ->
        let m = i32 r in
        let key = key r in
        (m, key))
  in
  let departures = list r ~min_item_size:4 i32 in
  let tree =
    match Keytree.restore (var32 r) with Ok tree -> tree | Error e -> corrupt "%s" e
  in
  let join_tbl = Hashtbl.create 64 in
  (* Share the key cell between list and table so every restored
     entry is live under the physical-equality test. *)
  List.iter (fun (m, key) -> Hashtbl.replace join_tbl m key) joins;
  let dep_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace dep_tbl m ()) departures;
  {
    tree;
    rng;
    pending_joins = List.rev joins;
    join_tbl;
    pending_departures = List.rev departures;
    dep_tbl;
    cumulative_cost;
    rekey_count;
  }

let snapshot t ~storage_key =
  (* Draw the nonce before capturing the PRNG so the snapshot and the
     live server share their post-snapshot stream. *)
  let nonce = Prng.bytes t.rng 16 in
  let plaintext = serialize_state t in
  let cipher = Key.cipher (enc_key_of storage_key) in
  let ct = Key.ctr_transform cipher ~nonce plaintext in
  let body = Bytes.create (4 + 16 + Bytes.length ct) in
  Bytes.blit_string seal_magic 0 body 0 4;
  Bytes.blit nonce 0 body 4 16;
  Bytes.blit ct 0 body 20 (Bytes.length ct);
  let tag = Gkm_crypto.Hmac.mac ~key:(Key.to_bytes (mac_key_of storage_key)) body in
  Bytes.cat body tag

let restore ~storage_key blob =
  let len = Bytes.length blob in
  if len < 4 + 16 + 32 then Error "sealed snapshot too short"
  else if Bytes.sub_string blob 0 4 <> seal_magic then Error "bad seal magic"
  else begin
    let body = Bytes.sub blob 0 (len - 32) in
    let tag = Bytes.sub blob (len - 32) 32 in
    if not (Gkm_crypto.Hmac.verify ~key:(Key.to_bytes (mac_key_of storage_key)) body ~tag)
    then Error "snapshot authentication failed"
    else begin
      let nonce = Bytes.sub blob 4 16 in
      let ct = Bytes.sub blob 20 (len - 32 - 20) in
      let cipher = Key.cipher (enc_key_of storage_key) in
      let plaintext = Key.ctr_transform cipher ~nonce ct in
      deserialize_state plaintext
    end
  end

let restore_state = deserialize_state
