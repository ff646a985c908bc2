(* Regeneration of every table and figure in the paper's evaluation.
   Analytic figures reproduce the paper's model exactly; the sim-*
   experiments cross-check them against the executable system at a
   reduced (laptop-scale) group size. Paper reference points are
   printed in each header so the output can be compared at a glance
   (see EXPERIMENTS.md). *)

open Gkm_analytic

let line fmt = Printf.printf (fmt ^^ "\n%!")

let header title =
  line "";
  line "================================================================";
  line "%s" title;
  line "================================================================"

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: default parameters for the two-partition evaluation";
  let p = Params.default in
  line "  Rekeying period Tp            %g s" p.tp;
  line "  Group size N                  %d" p.n;
  line "  Degree of a keytree d         %d" p.d;
  line "  K = Ts/Tp                     %d" p.k;
  line "  Small mean Ms                 %g s (3 minutes)" p.ms;
  line "  Large mean Ml                 %g s (3 hours)" p.ml;
  line "  Fraction of class Cs alpha    %g" p.alpha;
  let dv = Two_partition.derive p in
  line "  (derived) J per interval      %.1f" dv.j;
  line "  (derived) S-partition size Ns %.1f" dv.ns;
  line "  (derived) migrations Lm       %.1f" dv.lm

let cost p s = Two_partition.cost p s

let fig3 () =
  header
    "Fig. 3: rekeying cost vs S-period K (defaults; paper: one-keytree ~1.65e4,\n\
     TT up to ~25% below it at K=10, QT best near K=5-10, PT flat lowest)";
  line "%4s %12s %12s %12s %12s" "K" "one-keytree" "TT-scheme" "QT-scheme" "PT-scheme";
  let p = Params.default in
  for k = 0 to 20 do
    let p = { p with k } in
    line "%4d %12.0f %12.0f %12.0f %12.0f" k (cost p One_keytree) (cost p Tt) (cost p Qt)
      (cost p Pt)
  done

let fig4 () =
  header
    "Fig. 4: rekeying cost vs fraction of short-class members alpha (K=10;\n\
     paper: TT/QT win for alpha > 0.6, peak saving ~31.4% at alpha = 0.9)";
  line "%6s %12s %12s %12s %12s %9s %9s" "alpha" "one-keytree" "TT-scheme" "QT-scheme"
    "PT-scheme" "red(TT)" "red(QT)";
  let p = Params.default in
  List.iter
    (fun alpha ->
      let p = { p with alpha } in
      line "%6.2f %12.0f %12.0f %12.0f %12.0f %8.1f%% %8.1f%%" alpha (cost p One_keytree)
        (cost p Tt) (cost p Qt) (cost p Pt)
        (100.0 *. Two_partition.reduction p Tt)
        (100.0 *. Two_partition.reduction p Qt))
    (List.init 21 (fun i -> float_of_int i /. 20.0))

let fig5 () =
  header
    "Fig. 5: relative rekeying-cost reduction vs group size N (defaults;\n\
     paper: >22% savings on average, insensitive to N across 1K..256K)";
  line "%8s %12s %12s" "N" "QT saving" "TT saving";
  let p = Params.default in
  List.iter
    (fun n ->
      let p = { p with n } in
      line "%8d %11.1f%% %11.1f%%" n
        (100.0 *. Two_partition.reduction p Qt)
        (100.0 *. Two_partition.reduction p Tt))
    [ 1024; 4096; 16384; 65536; 262144 ]

let fig6 () =
  header
    "Fig. 6: WKA-BKR rekey bandwidth vs fraction of high-loss receivers\n\
     (N=65536, L=256, d=4, ph=0.2, pl=0.02; paper: loss-homogenized up to\n\
     12.1% below one-keytree near alpha=0.3; two-random slightly worse)";
  line "%6s %13s %13s %13s %9s" "alpha" "one-keytree" "two-random" "loss-homog" "saving";
  let c = Loss_homogenized.default in
  List.iter
    (fun alpha ->
      line "%6.2f %13.0f %13.0f %13.0f %8.1f%%" alpha
        (Loss_homogenized.one_keytree c ~alpha)
        (Loss_homogenized.two_random c ~alpha)
        (Loss_homogenized.loss_homogenized c ~alpha)
        (100.0 *. Loss_homogenized.reduction c ~alpha))
    (List.init 21 (fun i -> float_of_int i /. 20.0))

let fig7 () =
  header
    "Fig. 7: impact of misplaced receivers (alpha=0.2, ph=0.2, pl=0.02;\n\
     paper: small beta still wins, beta=0.8 about breaks even with one\n\
     keytree, beta=1.0 dips back below beta=0.8)";
  let c = Loss_homogenized.default in
  let one = Loss_homogenized.one_keytree c ~alpha:0.2 in
  let correct = Loss_homogenized.loss_homogenized c ~alpha:0.2 in
  line "%6s %15s %15s %15s" "beta" "mis-partitioned" "correct" "one-keytree";
  List.iter
    (fun beta ->
      line "%6.2f %15.0f %15.0f %15.0f" beta
        (Loss_homogenized.mispartitioned c ~alpha:0.2 ~beta)
        correct one)
    (List.init 11 (fun i -> float_of_int i /. 10.0))

let sec44 () =
  header
    "Section 4.4: loss-homogenization under the proactive-FEC transport\n\
     (paper: gain more significant than under WKA-BKR, up to 25.7% at\n\
     ph=0.2, pl=0.02, alpha=0.1)";
  line "%6s %13s %13s %9s" "alpha" "one-keytree" "loss-homog" "saving";
  let c = Loss_homogenized.default in
  let fc = Proactive_fec.default in
  List.iter
    (fun alpha ->
      line "%6.2f %13.0f %13.0f %8.1f%%" alpha
        (Proactive_fec.one_keytree fc c ~alpha)
        (Proactive_fec.loss_homogenized fc c ~alpha)
        (100.0 *. Proactive_fec.reduction fc c ~alpha))
    [ 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Simulation cross-checks (scaled-down N; the executable system)      *)

let sim_partition () =
  header
    "X1: discrete simulation of Figs. 3/4 (executable schemes, real key\n\
     wrapping, two-class churn; N scaled to 2048, 40 measured intervals\n\
     after a 4K-interval warm-up).\n\
     'analytic' columns evaluate the paper's model at the same N";
  let n = 2048 and ms = 180.0 and ml = 10800.0 and tp = 60.0 and k = 10 in
  (* The initial population joins in one batch, and QT/TT migrate the
     survivors from S to L K intervals later; measuring only after 4K
     intervals keeps that one-off migration out of the steady state. *)
  let warmup = 4 * k in
  line "%6s %14s %10s %10s %10s" "alpha" "scheme" "sim keys" "analytic" "sim size";
  List.iter
    (fun alpha ->
      List.iter
        (fun kind ->
          let r =
            Gkm.Sim_driver.run_partition ~seed:42 ~n ~alpha ~ms ~ml ~tp ~s_period:k ~warmup
              ~intervals:40 ~kind ()
          in
          let scheme =
            match kind with
            | Gkm.Scheme.One_keytree -> Two_partition.One_keytree
            | Qt -> Two_partition.Qt
            | Tt -> Two_partition.Tt
            | Pt -> Two_partition.Pt
          in
          let analytic =
            Two_partition.cost { Params.default with n; alpha; ms; ml; tp; k } scheme
          in
          line "%6.2f %14s %10.1f %10.1f %10.0f" alpha (Gkm.Scheme.kind_name kind) r.mean_keys
            analytic r.mean_size)
        Gkm.Scheme.all_kinds;
      line "")
    [ 0.4; 0.8; 0.9 ]

let sim_loss () =
  header
    "X2: simulated WKA-BKR delivery of one batched rekeying over a lossy\n\
     multicast channel (N scaled to 2048, L=64, ph=0.2, pl=0.02, 3 trials)";
  line "%6s %18s %12s %10s %8s" "alpha" "organization" "keys sent" "packets" "rounds";
  let run alpha organization name =
    let r =
      Gkm.Sim_driver.run_loss ~seed:42 ~trials:3 ~n:2048 ~l:64 ~alpha ~ph:0.2 ~pl:0.02
        ~organization ~transport:Gkm.Sim_driver.Wka_bkr_transport ()
    in
    line "%6.2f %18s %12.0f %10.0f %8.1f" alpha name r.mean_keys_sent r.mean_packets
      r.mean_rounds
  in
  List.iter
    (fun alpha ->
      run alpha Gkm.Sim_driver.Org_one "one-keytree";
      run alpha (Gkm.Sim_driver.Org_random 2) "two-random";
      run alpha (Gkm.Sim_driver.Org_homogenized 0.05) "loss-homogenized";
      line "")
    [ 0.1; 0.3; 0.5 ]

let sim_fec () =
  header
    "X3: simulated proactive-FEC delivery with real RS parity accounting\n\
     (N=1024, L=48, ph=0.2, pl=0.02; bandwidth counts parity packets)";
  line "%6s %18s %12s %12s" "alpha" "organization" "bandwidth" "rounds";
  let run alpha organization name =
    let r =
      Gkm.Sim_driver.run_loss ~seed:42 ~trials:3 ~n:1024 ~l:48 ~alpha ~ph:0.2 ~pl:0.02
        ~organization ~transport:(Gkm.Sim_driver.Fec_transport 0.25) ()
    in
    line "%6.2f %18s %12.0f %12.1f" alpha name r.mean_bandwidth r.mean_rounds
  in
  List.iter
    (fun alpha ->
      run alpha Gkm.Sim_driver.Org_one "one-keytree";
      run alpha (Gkm.Sim_driver.Org_homogenized 0.05) "loss-homogenized";
      line "")
    [ 0.1; 0.3 ]

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper (DESIGN.md Section 5)                     *)

let ablation_bands () =
  header
    "Ablation A1: number of loss bands (k-band generalization; 3-class\n\
     population 20%@0.2 / 30%@0.05 / 50%@0.01, N=65536, L=256)";
  let c = Loss_homogenized.default in
  let rates = [ (0.2, 0.2); (0.3, 0.05); (0.5, 0.01) ] in
  let mixed =
    Wka_bkr.forest_cost ~d:c.d
      [ { size = c.n; departures = c.l; composition = List.map (fun (f, p) -> (f, p)) rates } ]
  in
  line "  1 tree (mixed)                %10.0f keys" mixed;
  let two =
    Loss_homogenized.k_band c ~rates:[ (0.2, 0.2); (0.8, (0.3 *. 0.05 +. 0.5 *. 0.01) /. 0.8) ]
  in
  line "  2 bands (high vs rest)        %10.0f keys" two;
  let three = Loss_homogenized.k_band c ~rates in
  line "  3 bands (exact)               %10.0f keys" three;
  line "  saving 1->3 bands             %9.1f%%" (100.0 *. (1.0 -. (three /. mixed)))

let ablation_bursty () =
  header
    "Ablation A2: sensitivity of the loss-homogenized gain to bursty\n\
     (Gilbert-Elliott) loss instead of Bernoulli at the same mean loss\n\
     (simulated, N=1024, L=48, alpha=0.3, ph=0.2, pl=0.02)";
  line "%12s %18s %12s %9s" "loss model" "organization" "keys sent" "saving";
  let orgs =
    [ ("one-keytree", Gkm.Sim_driver.Org_one); ("loss-homog", Gkm.Sim_driver.Org_homogenized 0.05) ]
  in
  List.iter
    (fun (model_name, burstiness) ->
      let cost organization =
        let r =
          Gkm.Sim_driver.run_loss ~seed:7 ~trials:3 ?burstiness ~n:1024 ~l:48 ~alpha:0.3
            ~ph:0.2 ~pl:0.02 ~organization ~transport:Gkm.Sim_driver.Wka_bkr_transport ()
        in
        r.mean_keys_sent
      in
      let base = cost (snd (List.hd orgs)) in
      List.iter
        (fun (name, organization) ->
          let keys = cost organization in
          line "%12s %18s %12.0f %8.1f%%" model_name name keys
            (100.0 *. (1.0 -. (keys /. base))))
        orgs)
    [ ("bernoulli", None); ("bursty-0.7", Some 0.7); ("bursty-0.9", Some 0.9) ]

let ablation_adaptive_k () =
  header
    "Ablation A3: adaptive S-period selection (Section 3.4): best K per\n\
     alpha under the analytic model (TT-scheme, defaults otherwise)";
  line "%6s %8s %12s %12s %9s" "alpha" "best K" "cost@bestK" "cost@K=10" "extra@10";
  List.iter
    (fun alpha ->
      let p = { Params.default with alpha } in
      let k, best = Two_partition.best_k p Two_partition.Tt ~k_max:30 in
      let at10 = Two_partition.cost { p with k = 10 } Two_partition.Tt in
      line "%6.2f %8d %12.0f %12.0f %8.1f%%" alpha k best at10
        (100.0 *. ((at10 /. best) -. 1.0)))
    [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]

let ablation_oft () =
  header
    "Ablation A4: LKH vs one-way function trees (OFT) [BM00] — multicast\n\
     cost of a single departure vs group size (binary trees; OFT sends\n\
     ~log2 N blinded values where binary LKH sends ~2 log2 N keys)";
  line "%8s %14s %14s %10s" "N" "LKH (d=2)" "OFT" "ratio";
  List.iter
    (fun n ->
      let oft = Gkm_lkh.Oft.create ~seed:1 () in
      for m = 1 to n do
        Gkm_lkh.Oft.join oft m
      done;
      let lkh =
        Gkm.Scheme.create
          { (Gkm.Scheme.default_config Gkm.Scheme.One_keytree) with degree = 2; seed = 1 }
      in
      for m = 1 to n do
        ignore (Gkm.Scheme.register lkh ~member:m ~cls:Gkm.Scheme.Long)
      done;
      ignore (Gkm.Scheme.rekey lkh);
      let victims = List.init 8 (fun i -> 1 + (i * (n / 8))) in
      let oft_cost = ref 0 and lkh_cost = ref 0 in
      List.iter
        (fun m ->
          Gkm_lkh.Oft.leave oft m;
          oft_cost := !oft_cost + Gkm_lkh.Oft.last_broadcast_cost oft;
          Gkm.Scheme.enqueue_departure lkh m;
          ignore (Gkm.Scheme.rekey lkh);
          lkh_cost := !lkh_cost + Gkm.Scheme.last_cost lkh)
        victims;
      let oft_avg = float_of_int !oft_cost /. 8.0 and lkh_avg = float_of_int !lkh_cost /. 8.0 in
      line "%8d %14.1f %14.1f %10.2f" n lkh_avg oft_avg (oft_avg /. lkh_avg))
    [ 64; 256; 1024; 4096 ]

let ablation_probabilistic () =
  header
    "Ablation A5: probabilistic depth placement [SMS00] vs two-partition\n\
     (individual-rekeying regime: Huffman-style depths for the two\n\
     classes vs a balanced tree; compare with the PT oracle's batched\n\
     gain from Fig. 4)";
  line "%6s %10s %10s %12s %12s" "alpha" "ds" "dl" "saving(A5)" "PT saving";
  List.iter
    (fun alpha ->
      let p = { Params.default with alpha } in
      let ds, dl = Probabilistic.optimal_depths p in
      line "%6.2f %10.2f %10.2f %11.1f%% %11.1f%%" alpha ds dl
        (100.0 *. Probabilistic.reduction p)
        (100.0 *. Two_partition.reduction p Two_partition.Pt))
    [ 0.1; 0.3; 0.5; 0.7; 0.8; 0.9 ]

let all_analytic () =
  table1 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  sec44 ()

let all_sim () =
  sim_partition ();
  sim_loss ();
  sim_fec ()

let all_ablations () =
  ablation_bands ();
  ablation_bursty ();
  ablation_adaptive_k ();
  ablation_oft ();
  ablation_probabilistic ()

let by_name =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("sec44", sec44);
    ("sim-partition", sim_partition);
    ("sim-loss", sim_loss);
    ("sim-fec", sim_fec);
    ("ablation-bands", ablation_bands);
    ("ablation-bursty", ablation_bursty);
    ("ablation-adaptive-k", ablation_adaptive_k);
    ("ablation-oft", ablation_oft);
    ("ablation-probabilistic", ablation_probabilistic);
  ]
