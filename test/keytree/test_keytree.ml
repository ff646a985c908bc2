module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
open Gkm_keytree

let make ?(seed = 1) ?(degree = 4) () = Keytree.create ~degree (Prng.create seed)

let join t m =
  let key = Key.fresh (Prng.create (1000 + m)) in
  ignore (Keytree.batch_update t ~departed:[] ~joined:[ (m, key) ])

let join_many t ms = List.iter (join t) ms
let range a b = List.init (b - a + 1) (fun i -> a + i)

let assert_ok t =
  match Keytree.Private.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

(* ------------------------------------------------------------------ *)

let test_empty () =
  let t = make () in
  Alcotest.(check int) "size" 0 (Keytree.size t);
  Alcotest.(check int) "height" 0 (Keytree.height t);
  Alcotest.(check bool) "no group key" true (Keytree.group_key t = None);
  Alcotest.(check bool) "no root" true (Keytree.root_id t = None);
  assert_ok t

let test_single_member () =
  let t = make () in
  join t 7;
  Alcotest.(check int) "size" 1 (Keytree.size t);
  Alcotest.(check int) "height" 0 (Keytree.height t);
  (* With one member the root is its leaf: DEK = individual key. *)
  Alcotest.(check bool)
    "group key is leaf key" true
    (match Keytree.group_key t with
    | Some k -> Key.equal k (Keytree.leaf_key t 7)
    | None -> false);
  assert_ok t

let test_join_returns_full_path_updates () =
  let t = make ~degree:2 () in
  join t 1;
  join t 2;
  let key3 = Key.fresh (Prng.create 99) in
  let updates = Keytree.batch_update t ~departed:[] ~joined:[ (3, key3) ] in
  (* Every node on the joiner's path must be refreshed so that it can
     bootstrap from its individual key through the multicast message. *)
  let path_ids = List.map fst (Keytree.path t 3) in
  let updated_ids = List.map (fun (u : Keytree.update) -> u.node_id) updates in
  List.iter
    (fun id ->
      if Some id <> (if Keytree.mem t 3 then Some (fst (List.hd (Keytree.path t 3))) else None) then ())
    path_ids;
  let interior_path = List.tl path_ids (* drop the leaf itself *) in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "path node %d updated" id)
        true (List.mem id updated_ids))
    interior_path;
  assert_ok t

let test_departure_changes_group_key () =
  let t = make () in
  join_many t (range 1 9);
  let old_dek = Option.get (Keytree.group_key t) in
  let updates = Keytree.batch_update t ~departed:[ 4 ] ~joined:[] in
  let new_dek = Option.get (Keytree.group_key t) in
  Alcotest.(check bool) "DEK refreshed" false (Key.equal old_dek new_dek);
  Alcotest.(check bool) "member gone" false (Keytree.mem t 4);
  Alcotest.(check int) "size" 8 (Keytree.size t);
  Alcotest.(check bool) "updates non-empty" true (updates <> []);
  assert_ok t

let test_updates_deepest_first () =
  let t = make ~degree:2 () in
  join_many t (range 1 16);
  let updates = Keytree.batch_update t ~departed:[ 3; 11 ] ~joined:[] in
  let levels = List.map (fun (u : Keytree.update) -> u.level) updates in
  let rec non_increasing = function
    | a :: (b :: _ as tl) -> a >= b && non_increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "levels non-increasing" true (non_increasing levels);
  (* Root must be last and at level 0. *)
  (match List.rev updates with
  | last :: _ ->
      Alcotest.(check int) "root level" 0 last.level;
      Alcotest.(check (option int)) "root id" (Keytree.root_id t) (Some last.node_id)
  | [] -> Alcotest.fail "expected updates");
  assert_ok t

let members_under t node =
  let acc = ref [] in
  Keytree.iter_members_under t node (fun m -> acc := m :: !acc);
  List.rev !acc

(* The paper's "number of encrypted keys": every wrap of every update. *)
let rekey_cost updates =
  List.fold_left (fun acc (u : Keytree.update) -> acc + List.length u.wraps) 0 updates

let test_wrap_receiver_counts () =
  let t = make ~degree:2 () in
  join_many t (range 1 8);
  let updates = Keytree.batch_update t ~departed:[ 5 ] ~joined:[] in
  List.iter
    (fun (u : Keytree.update) ->
      List.iter
        (fun (w : Keytree.wrap) ->
          Alcotest.(check int)
            "receivers = members under the node"
            (List.length (members_under t w.under_node))
            w.receivers)
        u.wraps)
    updates;
  assert_ok t

let test_single_departure_cost_logarithmic () =
  (* One departure in a full, balanced d-ary tree costs about
     d * log_d N wraps (paper Section 3.1). *)
  let t = make ~degree:4 () in
  join_many t (range 1 256);
  let updates = Keytree.batch_update t ~departed:[ 100 ] ~joined:[] in
  let cost = rekey_cost updates in
  (* log_4 256 = 4 levels -> about 16 wraps; allow slack for local
     imbalance from the splice. *)
  Alcotest.(check bool) (Printf.sprintf "cost %d in [8, 24]" cost) true (cost >= 8 && cost <= 24)

let test_batch_shares_path_overlap () =
  (* Two departures under the same subtree must cost less than twice a
     single departure (shared path to the root is refreshed once). *)
  let t1 = make ~seed:5 ~degree:2 () in
  join_many t1 (range 1 64);
  let single = rekey_cost (Keytree.batch_update t1 ~departed:[ 1 ] ~joined:[]) in
  let t2 = make ~seed:5 ~degree:2 () in
  join_many t2 (range 1 64);
  let double = rekey_cost (Keytree.batch_update t2 ~departed:[ 1; 2 ] ~joined:[]) in
  Alcotest.(check bool)
    (Printf.sprintf "batch %d < 2 x single %d" double single)
    true
    (double < 2 * single)

let test_balance_sequential_inserts () =
  let t = make ~degree:4 () in
  join_many t (range 1 64);
  let depths = List.map (fun m -> List.length (Keytree.path t m) - 1) (Keytree.members t) in
  let max_depth = List.fold_left max 0 depths and min_depth = List.fold_left min max_int depths in
  (* 64 = 4^3: a perfectly balanced tree has depth 3; allow one extra
     level of slack for the greedy insertion. *)
  Alcotest.(check bool) (Printf.sprintf "max depth %d <= 4" max_depth) true (max_depth <= 4);
  Alcotest.(check bool) "min depth >= 2" true (min_depth >= 2);
  assert_ok t

let test_removal_to_empty () =
  let t = make () in
  join_many t (range 1 5);
  ignore (Keytree.batch_update t ~departed:[ 1; 2; 3; 4; 5 ] ~joined:[]);
  Alcotest.(check int) "empty again" 0 (Keytree.size t);
  Alcotest.(check bool) "no group key" true (Keytree.group_key t = None);
  assert_ok t

let test_simultaneous_join_and_leave () =
  let t = make () in
  join_many t (range 1 10);
  let k11 = Key.fresh (Prng.create 2011) and k12 = Key.fresh (Prng.create 2012) in
  let updates =
    Keytree.batch_update t ~departed:[ 2; 7 ] ~joined:[ (11, k11); (12, k12) ]
  in
  Alcotest.(check int) "size constant" 10 (Keytree.size t);
  Alcotest.(check bool) "11 in" true (Keytree.mem t 11);
  Alcotest.(check bool) "7 out" false (Keytree.mem t 7);
  Alcotest.(check bool) "cost positive" true (rekey_cost updates > 0);
  assert_ok t

let test_rejoin_after_leave () =
  let t = make () in
  join_many t (range 1 4);
  ignore (Keytree.batch_update t ~departed:[ 3 ] ~joined:[]);
  join t 3;
  Alcotest.(check bool) "rejoined" true (Keytree.mem t 3);
  Alcotest.(check int) "size" 4 (Keytree.size t);
  assert_ok t

let test_leave_and_rejoin_same_batch () =
  let t = make () in
  join_many t (range 1 4);
  let k = Key.fresh (Prng.create 33) in
  ignore (Keytree.batch_update t ~departed:[ 2 ] ~joined:[ (2, k) ]);
  Alcotest.(check bool) "still member" true (Keytree.mem t 2);
  Alcotest.(check bool) "individual key replaced" true (Key.equal (Keytree.leaf_key t 2) k);
  assert_ok t

let test_errors () =
  let t = make () in
  join_many t (range 1 4);
  (match Keytree.batch_update t ~departed:[ 99 ] ~joined:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "departing non-member accepted");
  (match
     Keytree.batch_update t ~departed:[]
       ~joined:[ (1, Key.fresh (Prng.create 0)) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "joining existing member accepted");
  (match Keytree.batch_update t ~departed:[ 1; 1 ] ~joined:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate departure accepted");
  match Keytree.path t 99 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "path of non-member"

let test_empty_batch_is_noop () =
  let t = make () in
  join_many t (range 1 4);
  let before = Keytree.snapshot t in
  let updates = Keytree.batch_update t ~departed:[] ~joined:[] in
  Alcotest.(check bool) "no updates" true (updates = []);
  (* The snapshot serializes the epoch with the rest of the tree. *)
  Alcotest.(check bool) "tree and epoch unchanged" true (Bytes.equal before (Keytree.snapshot t))

let test_path_root_is_group_key () =
  let t = make () in
  join_many t (range 1 20);
  List.iter
    (fun m ->
      let p = Keytree.path t m in
      let _, last_key = List.nth p (List.length p - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "member %d path reaches DEK" m)
        true
        (Key.equal last_key (Option.get (Keytree.group_key t))))
    (Keytree.members t)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let gen_ops =
  QCheck.Gen.(
    let* n = 1 -- 60 in
    let* seeds = list_size (return n) (0 -- 100) in
    return seeds)

let apply_ops seeds =
  (* Interpret each integer as an operation against a model set. *)
  let t = Keytree.create ~degree:3 (Prng.create 42) in
  let model = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun s ->
      let current = Hashtbl.fold (fun m () acc -> m :: acc) model [] in
      if s mod 3 = 0 || current = [] then begin
        let m = !next in
        incr next;
        Hashtbl.add model m ();
        ignore
          (Keytree.batch_update t ~departed:[]
             ~joined:[ (m, Key.fresh (Prng.create (500 + m))) ])
      end
      else begin
        let victim = List.nth current (s mod List.length current) in
        Hashtbl.remove model victim;
        ignore (Keytree.batch_update t ~departed:[ victim ] ~joined:[])
      end)
    seeds;
  (t, model)

let prop_invariants_hold =
  QCheck.Test.make ~name:"random op sequences keep invariants" ~count:200
    (QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen_ops)
    (fun seeds ->
      let t, model = apply_ops seeds in
      (match Keytree.Private.check t with Ok () -> true | Error _ -> false)
      && Keytree.size t = Hashtbl.length model
      && Hashtbl.fold (fun m () acc -> acc && Keytree.mem t m) model true)

let prop_paths_reach_root =
  QCheck.Test.make ~name:"every member's path ends at the root" ~count:100
    (QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen_ops)
    (fun seeds ->
      let t, _ = apply_ops seeds in
      match Keytree.root_id t with
      | None -> Keytree.size t = 0
      | Some rid ->
          List.for_all
            (fun m ->
              let p = Keytree.path t m in
              fst (List.nth p (List.length p - 1)) = rid)
            (Keytree.members t))

let prop_members_under_root_is_everyone =
  QCheck.Test.make ~name:"members_under root = members" ~count:100
    (QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen_ops)
    (fun seeds ->
      let t, _ = apply_ops seeds in
      match Keytree.root_id t with
      | None -> true
      | Some rid ->
          List.sort compare (members_under t rid)
          = List.sort compare (Keytree.members t))

let prop_departure_refreshes_whole_path =
  QCheck.Test.make ~name:"departure refreshes every surviving key the leaver knew" ~count:100
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, pick) ->
      let t = Keytree.create ~degree:3 (Prng.create 7) in
      List.iter
        (fun m ->
          ignore
            (Keytree.batch_update t ~departed:[]
               ~joined:[ (m, Key.fresh (Prng.create (900 + m))) ]))
        (range 1 n);
      let victim = 1 + (pick mod n) in
      let old_path = Keytree.path t victim in
      ignore (Keytree.batch_update t ~departed:[ victim ] ~joined:[]);
      (* No surviving node may still carry a key the victim held. *)
      List.for_all
        (fun (id, old_key) ->
          (not (Keytree.node_exists t id))
          ||
          let survivors = Keytree.members t in
          List.for_all
            (fun m ->
              List.for_all
                (fun (pid, pkey) -> pid <> id || not (Key.equal pkey old_key))
                (Keytree.path t m))
            survivors)
        old_path)

(* ------------------------------------------------------------------ *)
(* Equivalence against the seed algorithm (Keytree_reference is a
   verbatim copy of lib/keytree/keytree.ml before the hot-path
   overhaul). Both trees are driven with identical batches from
   identical PRNG seeds; every emitted update — including the wrap
   ciphertexts, computed through the cached schedule on one side and
   per-call expansion on the other — and every snapshot must be
   byte-identical. *)

module Ref = Keytree_reference

let updates_equal (a : Keytree.update list) (b : Ref.update list) =
  List.length a = List.length b
  && List.for_all2
       (fun (u : Keytree.update) (v : Ref.update) ->
         u.node_id = v.node_id && u.level = v.level && u.version = v.version
         && Key.equal u.key v.key
         && List.length u.wraps = List.length v.wraps
         && List.for_all2
              (fun (w : Keytree.wrap) (x : Ref.wrap) ->
                w.under_node = x.under_node
                && Key.equal w.under_key x.under_key
                && w.receivers = x.receivers
                && Bytes.equal
                     (Key.wrap_with (Lazy.force w.under_cipher) u.key)
                     (Key.wrap ~kek:x.under_key v.key))
              u.wraps v.wraps)
       a b

let trees_agree live refr =
  (match Keytree.Private.check live with Ok () -> true | Error _ -> false)
  && Keytree.size live = Ref.size refr
  && (match (Keytree.group_key live, Ref.group_key refr) with
     | None, None -> true
     | Some a, Some b -> Key.equal a b
     | _ -> false)
  && Bytes.equal (Keytree.snapshot live) (Ref.snapshot refr)

let twin_batch live refr ~departed ~joined =
  let joined_ref = List.map (fun (m, k) -> (m, Key.of_bytes (Key.to_bytes k))) joined in
  let u_live = Keytree.batch_update live ~departed ~joined in
  let u_ref = Ref.batch_update refr ~departed ~joined:joined_ref in
  updates_equal u_live u_ref && trees_agree live refr

let gen_batches =
  QCheck.Gen.(
    let* nb = 1 -- 12 in
    list_size (return nb) (pair (list_size (0 -- 5) (0 -- 1000)) (0 -- 5)))

let print_batches bs =
  String.concat ";"
    (List.map
       (fun (deps, nj) ->
         Printf.sprintf "([%s],%d)" (String.concat "," (List.map string_of_int deps)) nj)
       bs)

let prop_matches_reference =
  QCheck.Test.make ~name:"batch_update byte-identical to seed reference" ~count:150
    (QCheck.make ~print:print_batches gen_batches)
    (fun batches ->
      let live = Keytree.create ~degree:3 (Prng.create 11) in
      let refr = Ref.create ~degree:3 (Prng.create 11) in
      let next = ref 0 in
      List.for_all
        (fun (dep_picks, n_joins) ->
          let members = List.sort compare (Keytree.members live) in
          let n_mem = List.length members in
          let departed =
            List.sort_uniq compare
              (List.filter_map
                 (fun p -> if n_mem = 0 then None else Some (List.nth members (p mod n_mem)))
                 dep_picks)
          in
          let joined =
            List.init n_joins (fun _ ->
                let m = !next in
                incr next;
                (m, Key.fresh (Prng.create (7000 + m))))
          in
          twin_batch live refr ~departed ~joined)
        batches)

let test_reference_edge_cases () =
  (* Drain to empty, rejoin into the empty tree, and splice the root
     away (2 members -> 1 -> 0): the emission walk must agree with the
     seed on every degenerate shape. *)
  let live = Keytree.create ~degree:2 (Prng.create 23) in
  let refr = Ref.create ~degree:2 (Prng.create 23) in
  let key m = Key.fresh (Prng.create (8000 + m)) in
  let step ~departed ~joined =
    Alcotest.(check bool) "twin batch agrees" true (twin_batch live refr ~departed ~joined)
  in
  step ~departed:[] ~joined:(List.map (fun m -> (m, key m)) [ 1; 2; 3; 4; 5 ]);
  step ~departed:[ 1; 2; 3; 4; 5 ] ~joined:[];
  Alcotest.(check int) "drained" 0 (Keytree.size live);
  (* Rejoin into the empty tree. *)
  step ~departed:[] ~joined:[ (6, key 6); (7, key 7) ];
  (* Root splice: removing 7 leaves a single leaf as the new root. *)
  step ~departed:[ 7 ] ~joined:[];
  Alcotest.(check int) "single member" 1 (Keytree.size live);
  (* And remove the last member entirely. *)
  step ~departed:[ 6 ] ~joined:[];
  (* Mixed batch on a fresh population: splice + join in one epoch. *)
  step ~departed:[] ~joined:(List.map (fun m -> (m, key m)) [ 10; 11; 12 ]);
  step ~departed:[ 10; 11 ] ~joined:[ (13, key 13) ]

(* ------------------------------------------------------------------ *)
(* Cached key schedules                                                *)

let updates_identical (a : Keytree.update list) (b : Keytree.update list) =
  List.length a = List.length b
  && List.for_all2
       (fun (u : Keytree.update) (v : Keytree.update) ->
         u.node_id = v.node_id && u.level = v.level && u.version = v.version
         && Key.equal u.key v.key
         && List.length u.wraps = List.length v.wraps
         && List.for_all2
              (fun (w : Keytree.wrap) (x : Keytree.wrap) ->
                w.under_node = x.under_node && w.receivers = x.receivers
                && Key.equal w.under_key x.under_key
                && Bytes.equal
                     (Key.wrap_with (Lazy.force w.under_cipher) u.key)
                     (Key.wrap_with (Lazy.force x.under_cipher) v.key))
              u.wraps v.wraps)
       a b

let test_invalidate_schedules_transparent () =
  (* Dropping every cached schedule must not change emitted bytes —
     schedules are pure caches of the node keys. [restore] drops them
     all; the snapshot is taken with warm caches, so a stale schedule
     surviving restore would show as a divergent ciphertext. *)
  let t = make ~seed:47 () in
  let join ms =
    Keytree.batch_update t ~departed:[]
      ~joined:(List.map (fun m -> (m, Key.fresh (Prng.create (1000 + m)))) ms)
  in
  ignore (join (range 1 15));
  List.iter
    (fun (u : Keytree.update) ->
      List.iter (fun (w : Keytree.wrap) -> ignore (Lazy.force w.under_cipher)) u.wraps)
    (join [ 16 ]);
  let twin = Result.get_ok (Keytree.restore (Keytree.snapshot t)) in
  let u_t = Keytree.batch_update t ~departed:[ 2; 11 ] ~joined:[] in
  let u_r = Keytree.batch_update twin ~departed:[ 2; 11 ] ~joined:[] in
  Alcotest.(check bool) "invalidated tree emits identical updates" true (updates_identical u_t u_r);
  assert_ok twin

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_keytree"
    [
      ( "structure",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "single member" `Quick test_single_member;
          Alcotest.test_case "join updates full path" `Quick test_join_returns_full_path_updates;
          Alcotest.test_case "departure changes DEK" `Quick test_departure_changes_group_key;
          Alcotest.test_case "updates deepest-first" `Quick test_updates_deepest_first;
          Alcotest.test_case "wrap receiver counts" `Quick test_wrap_receiver_counts;
          Alcotest.test_case "balance under sequential inserts" `Quick test_balance_sequential_inserts;
          Alcotest.test_case "drain to empty" `Quick test_removal_to_empty;
          Alcotest.test_case "join+leave same batch" `Quick test_simultaneous_join_and_leave;
          Alcotest.test_case "rejoin after leave" `Quick test_rejoin_after_leave;
          Alcotest.test_case "leave+rejoin same batch" `Quick test_leave_and_rejoin_same_batch;
          Alcotest.test_case "argument errors" `Quick test_errors;
          Alcotest.test_case "empty batch no-op" `Quick test_empty_batch_is_noop;
          Alcotest.test_case "paths reach DEK" `Quick test_path_root_is_group_key;
          Alcotest.test_case "schedule invalidation transparent" `Quick
            test_invalidate_schedules_transparent;
        ] );
      ( "costs",
        [
          Alcotest.test_case "single departure logarithmic" `Quick test_single_departure_cost_logarithmic;
          Alcotest.test_case "batch shares path overlap" `Quick test_batch_shares_path_overlap;
        ] );
      ( "properties",
        qsuite
          [
            prop_invariants_hold;
            prop_paths_reach_root;
            prop_members_under_root_is_everyone;
            prop_departure_refreshes_whole_path;
          ] );
      ( "seed-equivalence",
        Alcotest.test_case "empty-tree and splice-root edges" `Quick test_reference_edge_cases
        :: qsuite [ prop_matches_reference ] );
    ]
