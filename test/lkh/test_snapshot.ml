module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree

let range a b = List.init (b - a + 1) (fun i -> a + i)

(* ------------------------------------------------------------------ *)
(* Keytree snapshots                                                   *)

let build_tree seed =
  let t = Keytree.create ~degree:3 (Prng.create seed) in
  List.iter
    (fun m ->
      ignore (Keytree.batch_update t ~departed:[] ~joined:[ (m, Key.fresh (Prng.create (m + 50))) ]))
    (range 1 20);
  ignore (Keytree.batch_update t ~departed:[ 4; 9 ] ~joined:[]);
  t

let test_keytree_snapshot_roundtrip () =
  let t = build_tree 1 in
  match Keytree.restore (Keytree.snapshot t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      Alcotest.(check int) "size" (Keytree.size t) (Keytree.size t');
      (* The blob carries the epoch: a restored tree re-serializes to it. *)
      Alcotest.(check bool) "epoch" true (Bytes.equal (Keytree.snapshot t) (Keytree.snapshot t'));
      Alcotest.(check (option int)) "root id" (Keytree.root_id t) (Keytree.root_id t');
      Alcotest.(check bool) "group key" true
        (Key.equal (Option.get (Keytree.group_key t)) (Option.get (Keytree.group_key t')));
      Alcotest.(check (list int)) "members"
        (List.sort compare (Keytree.members t))
        (List.sort compare (Keytree.members t'));
      List.iter
        (fun m ->
          let path_keys t = List.map (fun (id, k) -> (id, Key.fingerprint k)) (Keytree.path t m) in
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "path of %d" m)
            (path_keys t) (path_keys t'))
        (Keytree.members t)

let test_keytree_snapshot_continuation_identical () =
  (* The restored tree continues the PRNG: future batches on both
     trees must produce identical keys and structure. *)
  let t = build_tree 2 in
  let t' = Result.get_ok (Keytree.restore (Keytree.snapshot t)) in
  let step tree =
    Keytree.batch_update tree ~departed:[ 7 ]
      ~joined:[ (100, Key.of_bytes (Bytes.make 16 'k')) ]
  in
  let u = step t and u' = step t' in
  Alcotest.(check int) "same update count" (List.length u) (List.length u');
  List.iter2
    (fun (a : Keytree.update) (b : Keytree.update) ->
      Alcotest.(check int) "node" a.node_id b.node_id;
      Alcotest.(check string) "key" (Key.fingerprint a.key) (Key.fingerprint b.key))
    u u'

let test_keytree_snapshot_empty () =
  let t = Keytree.create ~degree:4 (Prng.create 3) in
  match Keytree.restore (Keytree.snapshot t) with
  | Ok t' -> Alcotest.(check int) "empty" 0 (Keytree.size t')
  | Error e -> Alcotest.fail e

let test_keytree_snapshot_corruption () =
  let t = build_tree 4 in
  let blob = Keytree.snapshot t in
  (* Structured corruption: truncations and field damage must be
     rejected, never crash. *)
  for len = 0 to min 40 (Bytes.length blob - 1) do
    match Keytree.restore (Bytes.sub blob 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d accepted" len
  done;
  let bad = Bytes.copy blob in
  Bytes.set bad 0 'X';
  match Keytree.restore bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

let prop_keytree_snapshot_roundtrip =
  QCheck.Test.make ~name:"keytree snapshot roundtrip across seeds" ~count:50
    QCheck.(pair (int_range 0 500) (int_range 1 40))
    (fun (seed, n) ->
      let t = Keytree.create ~degree:3 (Prng.create seed) in
      List.iter
        (fun m ->
          ignore
            (Keytree.batch_update t ~departed:[]
               ~joined:[ (m, Key.fresh (Prng.create (m + 1))) ]))
        (range 1 n);
      match Keytree.restore (Keytree.snapshot t) with
      | Ok t' -> Keytree.Private.check t' = Ok () && Keytree.size t' = n
      | Error _ -> false)

let test_keytree_snapshot_idempotent () =
  (* snapshot . restore is the identity on the serialized form. *)
  let t = build_tree 5 in
  let blob = Keytree.snapshot t in
  let t' = Result.get_ok (Keytree.restore blob) in
  Alcotest.(check bool) "stable serialization" true
    (Bytes.equal blob (Keytree.snapshot t'))

let () =
  Alcotest.run "gkm_snapshot"
    [
      ( "keytree",
        [
          Alcotest.test_case "roundtrip" `Quick test_keytree_snapshot_roundtrip;
          Alcotest.test_case "identical continuation" `Quick
            test_keytree_snapshot_continuation_identical;
          Alcotest.test_case "empty tree" `Quick test_keytree_snapshot_empty;
          Alcotest.test_case "corruption rejected" `Quick test_keytree_snapshot_corruption;
          Alcotest.test_case "idempotent serialization" `Quick test_keytree_snapshot_idempotent;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_keytree_snapshot_roundtrip ] );
    ]
