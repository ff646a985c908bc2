open Gkm_analytic

(* ------------------------------------------------------------------ *)
(* Batch_cost (Appendix A)                                             *)

let test_ne_degenerate () =
  Alcotest.(check (float 0.0)) "no departures" 0.0 (Batch_cost.expected_keys ~d:4 ~n:100.0 ~l:0.0);
  Alcotest.(check (float 0.0)) "single member" 0.0 (Batch_cost.expected_keys ~d:4 ~n:1.0 ~l:1.0);
  Alcotest.(check (float 0.0)) "empty tree" 0.0 (Batch_cost.expected_keys ~d:4 ~n:0.0 ~l:0.0)

let test_ne_all_depart () =
  (* If everyone departs, every interior key is refreshed: cost =
     total child links = interior nodes * d for a full tree. A full
     binary tree over 8 leaves has 7 interior... 7 nodes with 2
     children each = 14 encrypted keys. *)
  let c = Batch_cost.expected_keys_int ~d:2 ~n:8 ~l:8 in
  Alcotest.(check (float 1e-6)) "full refresh of binary tree" 14.0 c

let test_ne_single_departure_binary () =
  (* One departure in a full binary tree of 8: the 3 keys on the path
     are refreshed, each encrypted under 2 children = 6, exactly. *)
  let c = Batch_cost.expected_keys_int ~d:2 ~n:8 ~l:1 in
  Alcotest.(check (float 1e-6)) "single departure" 6.0 c

let test_ne_matches_level_formula () =
  (* For a full, balanced tree the recursive walk must equal the
     paper's per-level formula (12): Ne = sum_i d * d^i * P_i. *)
  let d = 4 and n = 4096 and l = 37 in
  let nf = float_of_int n and lf = float_of_int l in
  let h = 6 in
  let direct = ref 0.0 in
  for i = 0 to h - 1 do
    let s = float_of_int n /. (float_of_int d ** float_of_int i) in
    let p = 1.0 -. Gkm_sim.Mathx.choose_ratio ~total:nf ~excluded:s ~draws:lf in
    direct := !direct +. (float_of_int d *. (float_of_int d ** float_of_int i) *. p)
  done;
  let walked = Batch_cost.expected_keys_int ~d ~n ~l in
  Alcotest.(check (float 1e-6)) "recursive = closed form" !direct walked

let test_ne_interpolation () =
  let lo = Batch_cost.expected_keys_int ~d:4 ~n:1024 ~l:10 in
  let hi = Batch_cost.expected_keys_int ~d:4 ~n:1024 ~l:11 in
  let mid = Batch_cost.expected_keys ~d:4 ~n:1024.0 ~l:10.5 in
  Alcotest.(check (float 1e-9)) "linear interpolation" ((lo +. hi) /. 2.0) mid

let test_ne_per_level () =
  let levels = Batch_cost.per_level ~d:2 ~n:8 ~l:8 in
  (* All interior keys updated: 1 at level 0, 2 at level 1, 4 at level 2. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "per-level counts"
    [ (0, 1.0); (1, 2.0); (2, 4.0) ]
    levels

let prop_ne_monotone_in_l =
  QCheck.Test.make ~name:"Ne monotone in departures" ~count:200
    QCheck.(triple (int_range 2 500) (int_range 0 100) (int_range 2 5))
    (fun (n, l, d) ->
      let c1 = Batch_cost.expected_keys_int ~d ~n ~l in
      let c2 = Batch_cost.expected_keys_int ~d ~n ~l:(l + 1) in
      c2 >= c1 -. 1e-9)

let prop_ne_bounded_by_full_refresh =
  QCheck.Test.make ~name:"Ne <= full-tree refresh" ~count:200
    QCheck.(triple (int_range 2 500) (int_range 1 500) (int_range 2 5))
    (fun (n, l, d) ->
      let c = Batch_cost.expected_keys_int ~d ~n ~l in
      let full = Batch_cost.expected_keys_int ~d ~n ~l:n in
      c <= full +. 1e-9)

let prop_ne_at_least_single_path =
  (* At least one departure refreshes at least the root's children. *)
  QCheck.Test.make ~name:"Ne >= 2 when l >= 1, n >= 2" ~count:200
    QCheck.(triple (int_range 2 500) (int_range 1 50) (int_range 2 5))
    (fun (n, l, d) ->
      let l = min l n in
      Batch_cost.expected_keys_int ~d ~n ~l >= 2.0 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Two_partition (Section 3.3.1)                                       *)

let default = Params.default

let test_steady_state_conservation () =
  let dv = Two_partition.derive default in
  Alcotest.(check (float 1e-6)) "Ncs + Ncl = N" (float_of_int default.n) (dv.ncs +. dv.ncl);
  Alcotest.(check (float 1e-6)) "Ns + Nl = N" (float_of_int default.n) (dv.ns +. dv.nl);
  Alcotest.(check (float 1e-6)) "Lcs + Lcl = J" dv.j (dv.lcs +. dv.lcl);
  Alcotest.(check (float 1e-6)) "Ls + Lm = J" dv.j (dv.ls +. dv.lm);
  Alcotest.(check (float 1e-9)) "Ll = Lm in steady state" dv.lm dv.ll;
  Alcotest.(check bool) "all non-negative" true
    (dv.j >= 0.0 && dv.ns >= 0.0 && dv.nl >= 0.0 && dv.lm >= 0.0 && dv.ls >= 0.0)

let test_k0_degenerates_to_one_keytree () =
  let p = { default with k = 0 } in
  let one = Two_partition.cost p One_keytree in
  Alcotest.(check (float 1e-9)) "QT at K=0" one (Two_partition.cost p Qt);
  Alcotest.(check (float 1e-9)) "TT at K=0" one (Two_partition.cost p Tt)

let test_paper_fig3_shape () =
  (* TT at K=10 beats one-keytree by 20-30% (paper: up to 25%). *)
  let red_tt = Two_partition.reduction { default with k = 10 } Tt in
  Alcotest.(check bool)
    (Printf.sprintf "TT reduction %.1f%% in [18%%, 30%%]" (100.0 *. red_tt))
    true
    (red_tt > 0.18 && red_tt < 0.30);
  (* TT outperforms QT for large K. *)
  let p20 = { default with k = 20 } in
  Alcotest.(check bool) "TT < QT at K=20" true
    (Two_partition.cost p20 Tt < Two_partition.cost p20 Qt)

let test_paper_fig4_shape () =
  (* Crossover: schemes win for alpha > 0.6, lose for alpha <= 0.4;
     peak reduction ~31.4% at alpha = 0.9. *)
  let at alpha scheme = Two_partition.reduction { default with alpha } scheme in
  Alcotest.(check bool) "TT wins at 0.8" true (at 0.8 Tt > 0.0);
  Alcotest.(check bool) "QT wins at 0.8" true (at 0.8 Qt > 0.0);
  Alcotest.(check bool) "TT loses at 0.4" true (at 0.4 Tt < 0.0);
  Alcotest.(check bool) "QT loses at 0.4" true (at 0.4 Qt < 0.0);
  let peak = max (at 0.9 Tt) (at 0.9 Qt) in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.1f%% in [28%%, 34%%]" (100.0 *. peak))
    true
    (peak > 0.28 && peak < 0.34)

let test_pt_always_best () =
  (* Over the paper's plotted range PT dominates. (At the alpha = 1
     extreme a queue of brand-new members can actually beat the PT
     oracle's single tree, so 1.0 is excluded here and covered by the
     one-keytree comparison below.) *)
  List.iter
    (fun alpha ->
      let p = { default with alpha } in
      let pt = Two_partition.cost p Pt in
      List.iter
        (fun scheme ->
          Alcotest.(check bool)
            (Printf.sprintf "PT <= %s at alpha=%.1f" (Two_partition.scheme_name scheme) alpha)
            true
            (pt <= Two_partition.cost p scheme +. 1e-6))
        [ Two_partition.One_keytree; Qt; Tt; Pt ])
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 0.9 ];
  List.iter
    (fun alpha ->
      let p = { default with alpha } in
      Alcotest.(check bool)
        (Printf.sprintf "PT <= one-keytree at alpha=%.1f" alpha)
        true
        (Two_partition.cost p Pt <= Two_partition.cost p One_keytree +. 1e-6))
    [ 0.0; 0.5; 1.0 ]

let test_fig5_group_size_insensitive () =
  (* Fig. 5: across N in 1K..256K the relative savings stay near 22-30%. *)
  List.iter
    (fun n ->
      let p = { default with n } in
      let tt = Two_partition.reduction p Tt and qt = Two_partition.reduction p Qt in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: TT %.1f%% QT %.1f%% in [18%%, 32%%]" n (100.0 *. tt) (100.0 *. qt))
        true
        (tt > 0.18 && tt < 0.32 && qt > 0.18 && qt < 0.32))
    [ 1024; 4096; 16384; 65536; 262144 ]

let test_best_k () =
  let k, cost = Two_partition.best_k default Tt ~k_max:20 in
  Alcotest.(check bool) "best K strictly beats K=0" true
    (cost < Two_partition.cost { default with k = 0 } Tt);
  Alcotest.(check bool) (Printf.sprintf "best K=%d in [5, 15]" k) true (k >= 5 && k <= 15)

let prop_derive_conserves =
  QCheck.Test.make ~name:"steady state conserves members and flows" ~count:200
    QCheck.(
      quad (int_range 10 100000) (float_range 0.0 1.0) (int_range 0 30)
        (pair (float_range 30.0 2000.0) (float_range 2000.0 100000.0)))
    (fun (n, alpha, k, (ms, ml)) ->
      let p = { default with n; alpha; k; ms; ml } in
      let dv = Two_partition.derive p in
      let nf = float_of_int n in
      abs_float (dv.ncs +. dv.ncl -. nf) < 1e-6 *. nf
      && abs_float (dv.ns +. dv.nl -. nf) < 1e-6 *. nf
      && abs_float (dv.ls +. dv.lm -. dv.j) < 1e-6 *. (dv.j +. 1.0)
      && dv.ns >= -1e-9 && dv.nl >= -1e-9 && dv.lm >= -1e-9)

let prop_costs_positive =
  QCheck.Test.make ~name:"scheme costs positive and finite" ~count:100
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 20))
    (fun (alpha, k) ->
      let p = { default with n = 4096; alpha; k } in
      List.for_all
        (fun s ->
          let c = Two_partition.cost p s in
          Float.is_finite c && c >= 0.0)
        [ Two_partition.One_keytree; Qt; Tt; Pt ])

(* ------------------------------------------------------------------ *)
(* Wka_bkr (Appendix B)                                                *)

let test_em_lossless () =
  Alcotest.(check (float 1e-9)) "no loss: one transmission" 1.0
    (Wka_bkr.Private.expected_replications ~receivers:1000.0 (Wka_bkr.uniform 0.0))

let test_em_single_receiver () =
  (* E[M] for one receiver = 1 / (1 - p) (geometric). *)
  let p = 0.2 in
  Alcotest.(check (float 1e-6)) "geometric mean" (1.0 /. (1.0 -. p))
    (Wka_bkr.Private.expected_replications ~receivers:1.0 (Wka_bkr.uniform p))

let test_em_grows_with_receivers () =
  let em r = Wka_bkr.Private.expected_replications ~receivers:r (Wka_bkr.uniform 0.2) in
  Alcotest.(check bool) "more receivers, more replications" true
    (em 1.0 < em 10.0 && em 10.0 < em 1000.0)

let test_em_closed_form_two_receivers () =
  (* For R=2 with equal p:
     E[M] = sum_{m>=1} (1 - (1 - p^{m-1})^2)
          = 1 + sum_{j>=1} (2 p^j - p^{2j})
          = 1 + 2p/(1-p) - p^2/(1-p^2). *)
  let p = 0.3 in
  let expected = 1.0 +. (2.0 *. p /. (1.0 -. p)) -. (p *. p /. (1.0 -. (p *. p))) in
  Alcotest.(check (float 1e-6)) "closed form" expected
    (Wka_bkr.Private.expected_replications ~receivers:2.0 (Wka_bkr.uniform p))

let test_tree_cost_zero_cases () =
  let comp = Wka_bkr.uniform 0.1 in
  Alcotest.(check (float 0.0)) "no departures" 0.0
    (Wka_bkr.forest_cost ~d:4 [ { size = 100; departures = 0; composition = comp } ]);
  Alcotest.(check (float 0.0)) "empty tree" 0.0
    (Wka_bkr.forest_cost ~d:4 [ { size = 0; departures = 5; composition = comp } ])

let test_tree_cost_lossless_equals_ne () =
  (* With zero loss, WKA-BKR sends each key exactly once: E[V] = Ne. *)
  let n = 1024 and l = 16 and d = 4 in
  let ev =
    Wka_bkr.forest_cost ~d [ { size = n; departures = l; composition = Wka_bkr.uniform 0.0 } ]
  in
  let ne = Batch_cost.expected_keys_int ~d ~n ~l in
  Alcotest.(check (float 1e-6)) "E[V] = Ne at p=0" ne ev

let test_forest_single_tree_is_tree () =
  let t = { Wka_bkr.size = 512; departures = 8; composition = Wka_bkr.uniform 0.05 } in
  let empty = { Wka_bkr.size = 0; departures = 0; composition = Wka_bkr.uniform 0.0 } in
  let alone = Wka_bkr.forest_cost ~d:4 [ t ] in
  Alcotest.(check bool) "singleton forest costs" true (alone > 0.0);
  Alcotest.(check (float 1e-9)) "empty trees skipped" alone
    (Wka_bkr.forest_cost ~d:4 [ t; empty ]);
  Alcotest.(check (float 1e-9)) "empty trees skipped, either side" alone
    (Wka_bkr.forest_cost ~d:4 [ empty; t ])

let test_composition_validation () =
  (match Wka_bkr.Private.expected_replications ~receivers:1.0 [ (0.5, 0.1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fractions not summing to 1 accepted");
  match Wka_bkr.Private.expected_replications ~receivers:1.0 [ (1.0, 1.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "loss rate 1 accepted"

(* ------------------------------------------------------------------ *)
(* Loss_homogenized (Section 4.3)                                      *)

let lc = Loss_homogenized.default

let test_fig6_endpoints () =
  List.iter
    (fun alpha ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "homogeneous population at alpha=%.0f" alpha)
        (Loss_homogenized.one_keytree lc ~alpha)
        (Loss_homogenized.loss_homogenized lc ~alpha))
    [ 0.0; 1.0 ]

let test_fig6_shape () =
  (* Two-random is slightly worse than one-keytree; loss-homogenized
     beats both in the heterogeneous regime; peak reduction ~12%. *)
  List.iter
    (fun alpha ->
      let one = Loss_homogenized.one_keytree lc ~alpha in
      let rand = Loss_homogenized.two_random lc ~alpha in
      let homog = Loss_homogenized.loss_homogenized lc ~alpha in
      Alcotest.(check bool)
        (Printf.sprintf "rand >= one at %.1f" alpha)
        true (rand >= one -. 1e-6);
      Alcotest.(check bool)
        (Printf.sprintf "homog < one at %.1f" alpha)
        true (homog < one))
    [ 0.1; 0.2; 0.3; 0.5; 0.8 ];
  let peak =
    List.fold_left
      (fun acc alpha -> max acc (Loss_homogenized.reduction lc ~alpha))
      0.0
      [ 0.1; 0.2; 0.3; 0.4; 0.5 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak reduction %.1f%% in [10%%, 16%%]" (100.0 *. peak))
    true
    (peak > 0.10 && peak < 0.16)

let test_fig7_shape () =
  (* Cost grows as misplacement grows, small beta still beats
     one-keytree, and beta=1.0 dips below beta=0.8 (the paper's noted
     anomaly). *)
  let at beta = Loss_homogenized.mispartitioned lc ~alpha:0.2 ~beta in
  Alcotest.(check (float 1e-6)) "beta=0 is the correct partition"
    (Loss_homogenized.loss_homogenized lc ~alpha:0.2)
    (at 0.0);
  Alcotest.(check bool) "monotone through 0.8" true
    (at 0.0 < at 0.2 && at 0.2 < at 0.4 && at 0.4 < at 0.6 && at 0.6 < at 0.8);
  Alcotest.(check bool) "beta small still beats one-keytree" true
    (at 0.1 < Loss_homogenized.one_keytree lc ~alpha:0.2);
  Alcotest.(check bool) "beta=1.0 cheaper than beta=0.8" true (at 1.0 < at 0.8)

let test_k_band_matches_two_band () =
  let two = Loss_homogenized.loss_homogenized lc ~alpha:0.3 in
  let k =
    Loss_homogenized.k_band lc ~rates:[ (0.3, lc.ph); (0.7, lc.pl) ]
  in
  Alcotest.(check (float 1e-6)) "k_band generalizes two-band" two k

let test_k_band_three_bands_beats_one () =
  let cfg = { lc with ph = 0.2 } in
  let one =
    Wka_bkr.forest_cost ~d:cfg.d
      [
        {
          size = cfg.n;
          departures = cfg.l;
          composition = [ (0.2, 0.2); (0.3, 0.05); (0.5, 0.01) ];
        };
      ]
  in
  let banded =
    Loss_homogenized.k_band cfg ~rates:[ (0.2, 0.2); (0.3, 0.05); (0.5, 0.01) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "3 bands %.0f < mixed single tree %.0f" banded one)
    true (banded < one)

let prop_loss_homog_never_worse_interior =
  QCheck.Test.make ~name:"loss-homogenized <= one-keytree" ~count:40
    QCheck.(float_range 0.05 0.95)
    (fun alpha ->
      let small = { lc with n = 4096; l = 64 } in
      Loss_homogenized.loss_homogenized small ~alpha
      <= Loss_homogenized.one_keytree small ~alpha +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Proactive_fec (Section 4.4)                                         *)

let fc = Proactive_fec.default

let test_fec_block_lossless () =
  (* No loss: a block costs exactly k packets with a0 = 0. *)
  let c =
    Proactive_fec.Private.block_cost fc ~receivers:1000.0 ~composition:(Wka_bkr.uniform 0.0) ~a0:0
  in
  Alcotest.(check (float 1e-9)) "k packets" (float_of_int fc.block_size) c

let test_fec_optimal_proactivity_positive_under_loss () =
  let a0, _ =
    Proactive_fec.Private.optimal_block_cost fc ~receivers:10000.0 ~composition:(Wka_bkr.uniform 0.2)
  in
  Alcotest.(check bool) (Printf.sprintf "a0=%d > 0" a0) true (a0 > 0)

let test_fec_sec44_gain () =
  (* Paper: up to 25.7% reduction at ph=0.2, pl=0.02; we accept a peak
     in [18%, 32%] over the alpha sweep. *)
  let peak =
    List.fold_left
      (fun acc alpha -> max acc (Proactive_fec.reduction fc lc ~alpha))
      0.0
      [ 0.05; 0.1; 0.2; 0.3 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak FEC reduction %.1f%% in [18%%, 32%%]" (100.0 *. peak))
    true
    (peak > 0.18 && peak < 0.32)

let test_fec_homogeneous_fallback () =
  Alcotest.(check (float 1e-6)) "alpha=0 falls back"
    (Proactive_fec.one_keytree fc lc ~alpha:0.0)
    (Proactive_fec.loss_homogenized fc lc ~alpha:0.0)

let prop_fec_block_cost_decreasing_in_a0_initially =
  QCheck.Test.make ~name:"optimal block cost <= a0=0 cost" ~count:30
    QCheck.(float_range 0.01 0.3)
    (fun p ->
      let comp = Wka_bkr.uniform p in
      let _, best = Proactive_fec.Private.optimal_block_cost fc ~receivers:5000.0 ~composition:comp in
      let naive = Proactive_fec.Private.block_cost fc ~receivers:5000.0 ~composition:comp ~a0:0 in
      best <= naive +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Probabilistic placement [SMS00]                                     *)

let test_prob_kraft_feasible () =
  let p = Params.default in
  let ds, dl = Probabilistic.optimal_depths p in
  let dv = Two_partition.derive p in
  let df = float_of_int p.d in
  let kraft = (dv.ncs *. (df ** -.ds)) +. (dv.ncl *. (df ** -.dl)) in
  Alcotest.(check bool)
    (Printf.sprintf "kraft %.4f <= 1" kraft)
    true (kraft <= 1.0 +. 1e-6);
  Alcotest.(check bool) "depths >= 1" true (ds >= 1.0 && dl >= 1.0);
  (* Short-duration members leave more often: they must sit higher. *)
  Alcotest.(check bool) (Printf.sprintf "ds %.2f < dl %.2f" ds dl) true (ds < dl)

let test_prob_beats_balanced () =
  List.iter
    (fun alpha ->
      let p = { Params.default with alpha } in
      let red = Probabilistic.reduction p in
      Alcotest.(check bool)
        (Printf.sprintf "alpha=%.1f reduction %.1f%% >= 0" alpha (100.0 *. red))
        true
        (red >= -1e-9))
    [ 0.1; 0.3; 0.5; 0.8; 0.9 ]

let test_prob_homogeneous_no_gain () =
  (* With a single class there is nothing to exploit: the optimal tree
     is (nearly) balanced. *)
  let p = { Params.default with alpha = 0.0 } in
  Alcotest.(check bool)
    (Printf.sprintf "reduction %.2f%% small" (100.0 *. Probabilistic.reduction p))
    true
    (abs_float (Probabilistic.reduction p) < 0.02)

let prop_prob_cost_bounded =
  QCheck.Test.make ~name:"probabilistic cost within [0, balanced]" ~count:60
    QCheck.(pair (float_range 0.05 0.95) (int_range 1000 100000))
    (fun (alpha, n) ->
      (* [reduction] is [1 - cost / balanced]: it lies in [0, 1] exactly
         when the cost does in [0, balanced]. *)
      let r = Probabilistic.reduction { Params.default with alpha; n } in
      Float.is_finite r && r >= -1e-6 && r <= 1.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_analytic"
    [
      ( "batch_cost",
        [
          Alcotest.test_case "degenerate cases" `Quick test_ne_degenerate;
          Alcotest.test_case "all depart" `Quick test_ne_all_depart;
          Alcotest.test_case "single departure binary" `Quick test_ne_single_departure_binary;
          Alcotest.test_case "matches level formula" `Quick test_ne_matches_level_formula;
          Alcotest.test_case "interpolation" `Quick test_ne_interpolation;
          Alcotest.test_case "per level" `Quick test_ne_per_level;
        ]
        @ qsuite
            [ prop_ne_monotone_in_l; prop_ne_bounded_by_full_refresh; prop_ne_at_least_single_path ]
      );
      ( "two_partition",
        [
          Alcotest.test_case "steady-state conservation" `Quick test_steady_state_conservation;
          Alcotest.test_case "K=0 degenerates" `Quick test_k0_degenerates_to_one_keytree;
          Alcotest.test_case "Fig 3 shape" `Quick test_paper_fig3_shape;
          Alcotest.test_case "Fig 4 shape" `Quick test_paper_fig4_shape;
          Alcotest.test_case "PT always best" `Quick test_pt_always_best;
          Alcotest.test_case "Fig 5 group-size insensitivity" `Quick test_fig5_group_size_insensitive;
          Alcotest.test_case "best_k" `Quick test_best_k;
        ]
        @ qsuite [ prop_derive_conserves; prop_costs_positive ] );
      ( "wka_bkr",
        [
          Alcotest.test_case "lossless E[M]" `Quick test_em_lossless;
          Alcotest.test_case "single receiver geometric" `Quick test_em_single_receiver;
          Alcotest.test_case "grows with receivers" `Quick test_em_grows_with_receivers;
          Alcotest.test_case "closed form R=2" `Quick test_em_closed_form_two_receivers;
          Alcotest.test_case "zero cases" `Quick test_tree_cost_zero_cases;
          Alcotest.test_case "lossless = Ne" `Quick test_tree_cost_lossless_equals_ne;
          Alcotest.test_case "singleton forest" `Quick test_forest_single_tree_is_tree;
          Alcotest.test_case "composition validation" `Quick test_composition_validation;
        ] );
      ( "loss_homogenized",
        [
          Alcotest.test_case "Fig 6 endpoints" `Quick test_fig6_endpoints;
          Alcotest.test_case "Fig 6 shape" `Quick test_fig6_shape;
          Alcotest.test_case "Fig 7 shape" `Quick test_fig7_shape;
          Alcotest.test_case "k_band two-band equivalence" `Quick test_k_band_matches_two_band;
          Alcotest.test_case "three bands beat one tree" `Quick test_k_band_three_bands_beats_one;
        ]
        @ qsuite [ prop_loss_homog_never_worse_interior ] );
      ( "proactive_fec",
        [
          Alcotest.test_case "lossless block" `Quick test_fec_block_lossless;
          Alcotest.test_case "proactivity under loss" `Quick test_fec_optimal_proactivity_positive_under_loss;
          Alcotest.test_case "Section 4.4 gain" `Quick test_fec_sec44_gain;
          Alcotest.test_case "homogeneous fallback" `Quick test_fec_homogeneous_fallback;
        ]
        @ qsuite [ prop_fec_block_cost_decreasing_in_a0_initially ] );
      ( "probabilistic",
        [
          Alcotest.test_case "Kraft feasible, short sits higher" `Quick test_prob_kraft_feasible;
          Alcotest.test_case "never worse than balanced" `Quick test_prob_beats_balanced;
          Alcotest.test_case "homogeneous: no gain" `Quick test_prob_homogeneous_no_gain;
        ]
        @ qsuite [ prop_prob_cost_bounded ] );
    ]
