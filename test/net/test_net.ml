module Prng = Gkm_crypto.Prng
open Gkm_net

(* ------------------------------------------------------------------ *)
(* Loss models                                                         *)

let empirical_loss model trials seed =
  let rng = Prng.create seed in
  let state = Loss_model.init_state model in
  let lost = ref 0 in
  for _ = 1 to trials do
    if Loss_model.drop model state rng then incr lost
  done;
  float_of_int !lost /. float_of_int trials

let test_bernoulli_rate () =
  let m = Loss_model.bernoulli 0.2 in
  Alcotest.(check (float 1e-9)) "mean" 0.2 (Loss_model.mean_loss m);
  let rate = empirical_loss m 100_000 1 in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f" rate) true (abs_float (rate -. 0.2) < 0.01)

let test_bernoulli_extremes () =
  Alcotest.(check (float 0.0)) "no loss" 0.0 (empirical_loss (Loss_model.bernoulli 0.0) 1000 2);
  Alcotest.(check (float 0.0)) "total loss" 1.0 (empirical_loss (Loss_model.bernoulli 1.0) 1000 3)

let test_bernoulli_validation () =
  match Loss_model.bernoulli 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate > 1 accepted"

let test_gilbert_elliott_stationary () =
  let m = Loss_model.Gilbert_elliott { p_gb = 0.1; p_bg = 0.4; loss_good = 0.0; loss_bad = 1.0 } in
  Alcotest.(check (float 1e-9)) "stationary mean" 0.2 (Loss_model.mean_loss m);
  let rate = empirical_loss m 200_000 4 in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f" rate) true (abs_float (rate -. 0.2) < 0.01)

let test_bursty_matches_mean () =
  let m = Loss_model.bursty ~mean_loss:0.2 ~burstiness:0.7 in
  Alcotest.(check (float 1e-9)) "configured mean" 0.2 (Loss_model.mean_loss m);
  let rate = empirical_loss m 300_000 5 in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f" rate) true (abs_float (rate -. 0.2) < 0.015)

let test_bursty_is_burstier () =
  (* Measure mean run length of consecutive losses; the bursty model
     must produce longer runs than Bernoulli at the same mean. *)
  let run_length model seed =
    let rng = Prng.create seed in
    let state = Loss_model.init_state model in
    let runs = ref 0 and lost = ref 0 and in_run = ref false in
    for _ = 1 to 200_000 do
      if Loss_model.drop model state rng then begin
        incr lost;
        if not !in_run then begin
          incr runs;
          in_run := true
        end
      end
      else in_run := false
    done;
    float_of_int !lost /. float_of_int (max 1 !runs)
  in
  let bernoulli_run = run_length (Loss_model.bernoulli 0.2) 6 in
  let bursty_run = run_length (Loss_model.bursty ~mean_loss:0.2 ~burstiness:0.8) 6 in
  Alcotest.(check bool)
    (Printf.sprintf "bursty run %.2f > bernoulli run %.2f" bursty_run bernoulli_run)
    true (bursty_run > bernoulli_run *. 1.5)

let prop_mean_loss_in_range =
  QCheck.Test.make ~name:"mean_loss within [0,1]" ~count:200
    QCheck.(
      quad (float_range 0.0 1.0) (float_range 0.0 1.0) (float_range 0.0 1.0)
        (float_range 0.0 1.0))
    (fun (p_gb, p_bg, lg, lb) ->
      let m = Loss_model.Gilbert_elliott { p_gb; p_bg; loss_good = lg; loss_bad = lb } in
      let mean = Loss_model.mean_loss m in
      mean >= 0.0 && mean <= 1.0)

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)

let multicast ch =
  let mask = Array.make (Channel.size ch) false in
  Channel.multicast_into ch mask;
  mask

let mean_loss_of_member ch m =
  Loss_model.mean_loss (Channel.receiver ch (Channel.index_of_member ch m)).model

let test_channel_delivery_mask () =
  let rng = Prng.create 7 in
  let ch =
    Channel.create ~rng
      [ (10, Loss_model.bernoulli 0.0); (20, Loss_model.bernoulli 1.0); (30, Loss_model.bernoulli 0.0) ]
  in
  let mask = multicast ch in
  Alcotest.(check int) "size" 3 (Channel.size ch);
  Alcotest.(check bool) "lossless receiver got it" true mask.(Channel.index_of_member ch 10);
  Alcotest.(check bool) "total-loss receiver did not" false mask.(Channel.index_of_member ch 20);
  Alcotest.(check bool) "third got it" true mask.(Channel.index_of_member ch 30)

let test_channel_duplicate_member () =
  let rng = Prng.create 8 in
  match Channel.create ~rng [ (1, Loss_model.bernoulli 0.0); (1, Loss_model.bernoulli 0.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate member accepted"

let test_two_class_composition () =
  let rng = Prng.create 9 in
  let ch, high, low =
    Channel.two_class ~rng ~n:1000 ~alpha:0.3
      ~high:(Loss_model.bernoulli 0.2) ~low:(Loss_model.bernoulli 0.02)
  in
  Alcotest.(check int) "population" 1000 (Channel.size ch);
  Alcotest.(check int) "high count" 300 (List.length high);
  Alcotest.(check int) "low count" 700 (List.length low);
  List.iter
    (fun m ->
      Alcotest.(check (float 1e-9)) "high member loss" 0.2 (mean_loss_of_member ch m))
    high;
  List.iter
    (fun m ->
      Alcotest.(check (float 1e-9)) "low member loss" 0.02 (mean_loss_of_member ch m))
    low

let test_two_class_empirical () =
  let rng = Prng.create 10 in
  let ch, high, _low =
    Channel.two_class ~rng ~n:200 ~alpha:0.5
      ~high:(Loss_model.bernoulli 0.3) ~low:(Loss_model.bernoulli 0.0)
  in
  let rounds = 2000 in
  let losses = Array.make (Channel.size ch) 0 in
  for _ = 1 to rounds do
    let mask = multicast ch in
    Array.iteri (fun i got -> if not got then losses.(i) <- losses.(i) + 1) mask
  done;
  (* High-loss members should observe ~30% loss; low-loss none. *)
  List.iter
    (fun m ->
      let i = Channel.index_of_member ch m in
      let rate = float_of_int losses.(i) /. float_of_int rounds in
      if abs_float (rate -. 0.3) > 0.06 then
        Alcotest.failf "member %d empirical loss %.3f too far from 0.3" m rate)
    high;
  let total_low_losses =
    List.fold_left
      (fun acc m -> acc + losses.(Channel.index_of_member ch m))
      0 _low
  in
  Alcotest.(check int) "low class lost nothing" 0 total_low_losses

let prop_two_class_partition =
  QCheck.Test.make ~name:"two_class partitions the population" ~count:100
    QCheck.(pair (int_range 0 300) (float_range 0.0 1.0))
    (fun (n, alpha) ->
      let rng = Prng.create 11 in
      let _ch, high, low =
        Channel.two_class ~rng ~n ~alpha
          ~high:(Loss_model.bernoulli 0.2) ~low:(Loss_model.bernoulli 0.02)
      in
      let all = List.sort compare (high @ low) in
      all = List.init n Fun.id
      && List.length high = int_of_float (Float.round (alpha *. float_of_int n)))

(* Stationarity at 3 sigma: over [trials] packets the empirical loss
   rate of any model must sit within three standard deviations of
   [mean_loss]. For Bernoulli the sample mean has variance p(1-p)/n;
   the bursty Gilbert-Elliott chain's consecutive samples are
   correlated with second eigenvalue lambda = 1 - p_gb - p_bg, which
   inflates the variance of the mean by (1 + lambda) / (1 - lambda).
   The drop-stream seed is a deterministic function of the generated
   parameters and the qcheck generator runs under a fixed random state
   (see [qsuite_det]), so the whole property is reproducible. *)
let three_sigma_ok model ~trials ~seed =
  let p = Loss_model.mean_loss model in
  let correction =
    match model with
    | Loss_model.Bernoulli _ -> 1.0
    | Loss_model.Gilbert_elliott { p_gb; p_bg; _ } ->
        let lambda = 1.0 -. p_gb -. p_bg in
        (1.0 +. lambda) /. (1.0 -. lambda)
  in
  let sigma = sqrt (p *. (1.0 -. p) *. correction /. float_of_int trials) in
  let rate = empirical_loss model trials seed in
  abs_float (rate -. p) <= (3.0 *. sigma) +. 1e-12

let prop_bernoulli_3sigma =
  QCheck.Test.make ~name:"bernoulli empirical loss within 3 sigma of mean_loss" ~count:30
    QCheck.(float_range 0.01 0.99)
    (fun rate ->
      three_sigma_ok (Loss_model.bernoulli rate) ~trials:100_000
        ~seed:(7 + int_of_float (rate *. 1_000_000.0)))

let prop_bursty_3sigma =
  QCheck.Test.make ~name:"bursty GE empirical loss within 3 sigma of mean_loss" ~count:30
    QCheck.(pair (float_range 0.05 0.5) (float_range 0.1 0.9))
    (fun (mean_loss, burstiness) ->
      three_sigma_ok
        (Loss_model.bursty ~mean_loss ~burstiness)
        ~trials:100_000
        ~seed:(13 + int_of_float ((mean_loss +. (10.0 *. burstiness)) *. 100_000.0)))

(* multicast_into must draw the same per-receiver samples in the same
   order as multicast: two identically-seeded channels stay
   bit-for-bit in lockstep when one uses the allocating API and the
   other reuses a single mask. *)
(* One mask buffer reused across packets reports what a fresh buffer
   per packet does: no delivery leaks from one packet into the next. *)
let test_multicast_into_equiv () =
  let mk () =
    let rng = Prng.create 77 in
    Channel.create ~rng
      (List.init 64 (fun m ->
           ( m,
             if m mod 3 = 0 then Loss_model.bursty ~mean_loss:0.3 ~burstiness:0.6
             else Loss_model.bernoulli 0.1 )))
  in
  let a = mk () and b = mk () in
  let mask = Array.make (Channel.size b) false in
  for pkt = 1 to 200 do
    let fresh = multicast a in
    Channel.multicast_into b mask;
    Alcotest.(check (array bool)) (Printf.sprintf "packet %d" pkt) fresh mask
  done;
  match Channel.multicast_into b (Array.make 3 false) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wrong-length mask accepted"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* Deterministic parameter generation: without a pinned random state a
   3-sigma bound would flake on ~0.3% of fresh parameter draws. *)
let qsuite_det tests =
  let rand = Random.State.make [| 0x5eed; 0x90c |] in
  List.map (QCheck_alcotest.to_alcotest ~rand) tests

let () =
  Alcotest.run "gkm_net"
    [
      ( "loss_model",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli validation" `Quick test_bernoulli_validation;
          Alcotest.test_case "gilbert-elliott stationary" `Quick test_gilbert_elliott_stationary;
          Alcotest.test_case "bursty matches mean" `Quick test_bursty_matches_mean;
          Alcotest.test_case "bursty is burstier" `Quick test_bursty_is_burstier;
        ]
        @ qsuite [ prop_mean_loss_in_range ]
        @ qsuite_det [ prop_bernoulli_3sigma; prop_bursty_3sigma ] );
      ( "channel",
        [
          Alcotest.test_case "delivery mask" `Quick test_channel_delivery_mask;
          Alcotest.test_case "duplicate member rejected" `Quick test_channel_duplicate_member;
          Alcotest.test_case "two-class composition" `Quick test_two_class_composition;
          Alcotest.test_case "two-class empirical" `Quick test_two_class_empirical;
          Alcotest.test_case "multicast_into lockstep" `Quick test_multicast_into_equiv;
        ]
        @ qsuite [ prop_two_class_partition ] );
    ]
