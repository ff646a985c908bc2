open Gkm_lkh
module Scheme = Gkm.Scheme

let range a b = List.init (b - a + 1) (fun i -> a + i)

let assert_oft_ok t =
  match Oft.check t with Ok () -> () | Error e -> Alcotest.fail ("OFT invariant: " ^ e)

let all_members_compute_root t =
  match Oft.root_secret t with
  | None -> Oft.size t = 0
  | Some root ->
      List.for_all
        (fun m ->
          match Oft.compute_root (Oft.view t m) with
          | Some x -> Bytes.equal x root
          | None -> false)
        (Oft.members t)

let test_oft_joins () =
  let t = Oft.create ~seed:1 () in
  List.iter (Oft.join t) (range 1 17);
  Alcotest.(check int) "size" 17 (Oft.size t);
  assert_oft_ok t;
  Alcotest.(check bool) "all compute root" true (all_members_compute_root t)

let test_oft_backward_secrecy () =
  let t = Oft.create ~seed:2 () in
  List.iter (Oft.join t) (range 1 8);
  let old_root = Option.get (Oft.root_secret t) in
  Oft.join t 100;
  let new_root = Option.get (Oft.root_secret t) in
  Alcotest.(check bool) "root changed on join" false (Bytes.equal old_root new_root);
  Alcotest.(check bool) "joiner computes new root" true
    (match Oft.compute_root (Oft.view t 100) with
    | Some x -> Bytes.equal x new_root
    | None -> false)

let test_oft_leave_forward_secrecy () =
  let t = Oft.create ~seed:3 () in
  List.iter (Oft.join t) (range 1 16);
  Oft.leave t 5;
  assert_oft_ok t;
  Alcotest.(check bool) "survivors compute root" true (all_members_compute_root t);
  let root = Option.get (Oft.root_secret t) in
  (match Oft.evicted_view t 5 with
  | None -> Alcotest.fail "no frozen view"
  | Some frozen ->
      Alcotest.(check bool) "evicted cannot compute the new root" false
        (match Oft.compute_root frozen with Some x -> Bytes.equal x root | None -> false));
  (* Keep churning: the evicted view must stay useless. *)
  Oft.join t 50;
  Oft.leave t 9;
  let root = Option.get (Oft.root_secret t) in
  match Oft.evicted_view t 5 with
  | Some frozen ->
      Alcotest.(check bool) "still locked out" false
        (match Oft.compute_root frozen with Some x -> Bytes.equal x root | None -> false)
  | None -> Alcotest.fail "frozen view lost"

let test_oft_costs_logarithmic () =
  let t = Oft.create ~seed:4 () in
  List.iter (Oft.join t) (range 1 64);
  Oft.leave t 30;
  (* A 64-member binary tree is ~6 levels deep: OFT broadcasts about
     one blinded value per level, where binary LKH would send ~2 keys
     per level. *)
  let c = Oft.last_broadcast_cost t in
  Alcotest.(check bool) (Printf.sprintf "broadcast %d in [4, 10]" c) true (c >= 4 && c <= 10);
  Alcotest.(check int) "one unicast secret" 1 (Oft.last_unicast_cost t)

let test_oft_halves_lkh_binary () =
  (* Average single-departure cost over several evictions: OFT should
     be clearly below binary LKH's d * path wraps on the same size. *)
  let n = 128 in
  let oft = Oft.create ~seed:5 () in
  List.iter (Oft.join oft) (range 1 n);
  let lkh =
    Scheme.create { (Scheme.default_config Scheme.One_keytree) with degree = 2; seed = 5 }
  in
  List.iter (fun m -> ignore (Scheme.register lkh ~member:m ~cls:Scheme.Long)) (range 1 n);
  ignore (Scheme.rekey lkh);
  let oft_total = ref 0 and lkh_total = ref 0 in
  List.iter
    (fun m ->
      Oft.leave oft m;
      oft_total := !oft_total + Oft.last_broadcast_cost oft;
      Scheme.enqueue_departure lkh m;
      let msg = Option.get (Scheme.rekey lkh) in
      lkh_total := !lkh_total + Rekey_msg.size_keys msg)
    [ 3; 40; 77; 100; 15 ];
  Alcotest.(check bool)
    (Printf.sprintf "OFT %d < LKH-binary %d" !oft_total !lkh_total)
    true
    (!oft_total * 3 < !lkh_total * 2)

let test_oft_edges () =
  let t = Oft.create ~seed:6 () in
  Alcotest.(check bool) "empty root" true (Oft.root_secret t = None);
  Oft.join t 1;
  Alcotest.(check bool) "singleton root = leaf secret" true (Oft.root_secret t <> None);
  Oft.leave t 1;
  Alcotest.(check int) "empty again" 0 (Oft.size t);
  Alcotest.(check bool) "no root" true (Oft.root_secret t = None);
  (match Oft.join t 1 with () -> ());
  (match Oft.join t 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double join accepted");
  match Oft.leave t 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stranger leave accepted"

let test_oft_batch_shares_paths () =
  (* A batch of departures under overlapping paths must broadcast
     fewer blinded values than the same departures one by one. *)
  let build () =
    let t = Oft.create ~seed:7 () in
    List.iter (Oft.join t) (range 1 64);
    t
  in
  let victims = [ 1; 2; 3; 4 ] in
  let t1 = build () in
  let individual =
    List.fold_left
      (fun acc m ->
        Oft.leave t1 m;
        acc + Oft.last_broadcast_cost t1)
      0 victims
  in
  let t2 = build () in
  Oft.batch t2 ~departed:victims ~joined:[];
  let batched = Oft.last_broadcast_cost t2 in
  Alcotest.(check bool)
    (Printf.sprintf "batched %d < individual %d" batched individual)
    true
    (batched < individual);
  (match Oft.check t2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "survivors compute root" true (all_members_compute_root t2);
  let root = Option.get (Oft.root_secret t2) in
  List.iter
    (fun m ->
      match Oft.evicted_view t2 m with
      | Some frozen ->
          Alcotest.(check bool)
            (Printf.sprintf "evicted %d locked out" m)
            false
            (match Oft.compute_root frozen with Some x -> Bytes.equal x root | None -> false)
      | None -> Alcotest.fail "missing frozen view")
    victims

let test_oft_batch_mixed () =
  let t = Oft.create ~seed:8 () in
  List.iter (Oft.join t) (range 1 20);
  Oft.batch t ~departed:[ 2; 11; 19 ] ~joined:[ 30; 31 ];
  Alcotest.(check int) "size" 19 (Oft.size t);
  (match Oft.check t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "all converge" true (all_members_compute_root t)

let test_oft_batch_validation () =
  let t = Oft.create ~seed:9 () in
  List.iter (Oft.join t) (range 1 4);
  (match Oft.batch t ~departed:[ 1; 1 ] ~joined:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate departure accepted");
  match Oft.batch t ~departed:[] ~joined:[ 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "join of existing member accepted"

let prop_oft_batch_churn =
  QCheck.Test.make ~name:"oft batched churn stays secure" ~count:30
    QCheck.(pair (int_range 0 500) (list_of_size Gen.(1 -- 8) (pair (int_range 0 4) (int_range 0 3))))
    (fun (seed, ops) ->
      let t = Oft.create ~seed () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (joins, leaves) ->
          let joined =
            List.init joins (fun _ ->
                incr next;
                !next)
          in
          let departed =
            List.filteri (fun i _ -> i < leaves) (List.sort compare (Oft.members t))
          in
          Oft.batch t ~departed ~joined;
          if Oft.check t <> Ok () then ok := false;
          if not (all_members_compute_root t) then ok := false;
          match Oft.root_secret t with
          | None -> ()
          | Some root ->
              List.iter
                (fun m ->
                  match Oft.evicted_view t m with
                  | Some frozen -> (
                      match Oft.compute_root frozen with
                      | Some x when Bytes.equal x root -> ok := false
                      | _ -> ())
                  | None -> ())
                departed)
        ops;
      !ok)

let prop_oft_churn =
  QCheck.Test.make ~name:"oft churn: invariants, convergence, lockout" ~count:40
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(1 -- 25) (int_range 0 9)))
    (fun (seed, ops) ->
      let t = Oft.create ~seed () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 6 || Oft.size t = 0 then begin
            incr next;
            Oft.join t !next
          end
          else begin
            match Oft.members t with
            | m :: _ -> Oft.leave t m
            | [] -> ()
          end;
          if Oft.check t <> Ok () then ok := false;
          if not (all_members_compute_root t) then ok := false;
          (* Every frozen view must fail against the current root. *)
          match Oft.root_secret t with
          | None -> ()
          | Some root ->
              List.iter
                (fun m ->
                  match Oft.evicted_view t m with
                  | Some frozen -> (
                      match Oft.compute_root frozen with
                      | Some x when Bytes.equal x root -> ok := false
                      | _ -> ())
                  | None -> ())
                (List.init !next (fun i -> i + 1)))
        ops;
      !ok)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_lkh_oft"
    [
      ( "oft",
        [
          Alcotest.test_case "joins" `Quick test_oft_joins;
          Alcotest.test_case "backward secrecy" `Quick test_oft_backward_secrecy;
          Alcotest.test_case "forward secrecy" `Quick test_oft_leave_forward_secrecy;
          Alcotest.test_case "logarithmic costs" `Quick test_oft_costs_logarithmic;
          Alcotest.test_case "halves binary LKH" `Quick test_oft_halves_lkh_binary;
          Alcotest.test_case "edge cases" `Quick test_oft_edges;
          Alcotest.test_case "batch shares paths" `Quick test_oft_batch_shares_paths;
          Alcotest.test_case "batch mixed" `Quick test_oft_batch_mixed;
          Alcotest.test_case "batch validation" `Quick test_oft_batch_validation;
        ]
        @ qsuite [ prop_oft_churn; prop_oft_batch_churn ] );
    ]
