module Prng = Gkm_crypto.Prng
module Membership = Gkm_workload.Membership
open Gkm

(* Drive an Adaptive-wrapped scheme with the two-class workload and
   check that the controller observes, fits, recommends and retunes. *)

let drive ~kind ~s_period ~alpha ~ms ~ml ~intervals ~seed =
  let tp = 60.0 in
  let n = 300 in
  let cfg = Membership.of_params ~n_target:n ~alpha ~ms ~ml ~tp in
  let buckets = Membership.intervals cfg ~rng:(Prng.create seed) ~n_intervals:intervals in
  let scheme = Scheme.create { kind; degree = 4; s_period; seed = seed + 1 } in
  let adaptive =
    Adaptive.create
      ~config:{ Adaptive.refit_every = 20; min_observations = 50; k_max = 25 }
      scheme ~tp
  in
  List.iter
    (fun (joins, departs) ->
      List.iter
        (fun (m, cls) ->
          let cls = match cls with Membership.Short -> Scheme.Short | Long -> Scheme.Long in
          ignore (Adaptive.register adaptive ~member:m ~cls))
        joins;
      List.iter
        (fun m ->
          if
            Scheme.is_member scheme m
            || List.exists (fun (j, _) -> j = m) joins
          then Adaptive.enqueue_departure adaptive m)
        departs;
      ignore (Adaptive.rekey adaptive))
    buckets;
  adaptive

let test_adaptive_observes_and_fits () =
  let a = drive ~kind:Scheme.Tt ~s_period:2 ~alpha:0.85 ~ms:150.0 ~ml:7200.0 ~intervals:80 ~seed:3 in
  Alcotest.(check bool)
    (Printf.sprintf "observations %d > 200" (Adaptive.observations a))
    true
    (Adaptive.observations a > 200);
  Alcotest.(check bool) "refitted at least twice" true (Adaptive.refits a >= 2);
  match Adaptive.last_fit a with
  | None -> Alcotest.fail "no fit"
  | Some m ->
      Alcotest.(check bool)
        (Printf.sprintf "fitted alpha %.2f near 0.85" m.alpha)
        true
        (abs_float (m.alpha -. 0.85) < 0.12);
      Alcotest.(check bool)
        (Printf.sprintf "fitted Ms %.0f near 150" m.ms)
        true
        (abs_float (m.ms -. 150.0) /. 150.0 < 0.4)

let test_adaptive_retunes_s_period () =
  (* Start with an absurd S-period; the controller should move it
     toward the analytic optimum. *)
  let a = drive ~kind:Scheme.Tt ~s_period:1 ~alpha:0.85 ~ms:150.0 ~ml:7200.0 ~intervals:80 ~seed:4 in
  let tuned = Scheme.s_period (Adaptive.scheme a) in
  Alcotest.(check bool)
    (Printf.sprintf "tuned S-period %d moved above 1" tuned)
    true (tuned > 1);
  Alcotest.(check bool)
    (Printf.sprintf "tuned S-period %d stays sane" tuned)
    true (tuned <= 25)

let test_adaptive_recommends_partition_for_churny_group () =
  let a = drive ~kind:Scheme.One_keytree ~s_period:0 ~alpha:0.9 ~ms:120.0 ~ml:10800.0 ~intervals:80 ~seed:5 in
  match Adaptive.recommendation a with
  | Some (kind, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "recommends a partition scheme (%s, K=%d)" (Scheme.kind_name kind) k)
        true
        (kind <> Scheme.One_keytree && k > 0)
  | None -> Alcotest.fail "no recommendation"

let test_adaptive_recommends_one_keytree_for_stable_group () =
  (* Nearly everyone is long-duration: the one-keytree baseline should
     win (paper: "for applications that have very stable memberships,
     the one-keytree scheme is preferred"). *)
  let a = drive ~kind:Scheme.One_keytree ~s_period:0 ~alpha:0.05 ~ms:120.0 ~ml:10800.0 ~intervals:80 ~seed:6 in
  match Adaptive.recommendation a with
  | Some (kind, _) ->
      Alcotest.(check string) "one-keytree recommended" "one-keytree" (Scheme.kind_name kind)
  | None -> Alcotest.fail "no recommendation"

let test_adaptive_validation () =
  let scheme = Scheme.create (Scheme.default_config Scheme.Tt) in
  (match Adaptive.create ~config:{ Adaptive.default_config with refit_every = 0 } scheme ~tp:60.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "refit_every = 0 accepted");
  match Adaptive.create scheme ~tp:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tp = 0 accepted"

let test_set_s_period_live () =
  let scheme = Scheme.create { kind = Scheme.Qt; degree = 3; s_period = 100; seed = 8 } in
  ignore (Scheme.register scheme ~member:1 ~cls:Scheme.Short);
  ignore (Scheme.rekey scheme);
  let sizes () = (Scheme.s_size scheme, Scheme.l_size scheme) in
  Alcotest.(check (pair int int)) "member waits in queue" (1, 0) (sizes ());
  (* Lower the S-period to 1: the next interval must migrate. *)
  Scheme.set_s_period scheme 1;
  ignore (Scheme.rekey scheme);
  Alcotest.(check (pair int int)) "migrated after retuning" (0, 1) (sizes ());
  match Scheme.set_s_period scheme (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative S-period accepted"

let () =
  Alcotest.run "gkm_adaptive"
    [
      ( "adaptive",
        [
          Alcotest.test_case "observes and fits" `Quick test_adaptive_observes_and_fits;
          Alcotest.test_case "retunes S-period" `Quick test_adaptive_retunes_s_period;
          Alcotest.test_case "recommends partitioning for churn" `Quick
            test_adaptive_recommends_partition_for_churny_group;
          Alcotest.test_case "recommends baseline for stable groups" `Quick
            test_adaptive_recommends_one_keytree_for_stable_group;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
          Alcotest.test_case "set_s_period live" `Quick test_set_s_period_live;
        ] );
    ]
