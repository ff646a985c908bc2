(* Exact quantiles against hand-computed vectors. *)

let close = Alcotest.float 1e-9
let q l p = Stats.quantile (Stats.of_list l) p

let interpolated () =
  (* h = q (n - 1); value = a.(floor h) + frac h * gap *)
  Alcotest.check close "median of 1..4" 2.5 (q [ 1.; 2.; 3.; 4. ] 0.5);
  Alcotest.check close "p90 of 1..4 (h = 2.7)" 3.7 (q [ 1.; 2.; 3.; 4. ] 0.9);
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p90 of 1..10 (h = 8.1)" 9.1 (q one_to_ten 0.9);
  Alcotest.check close "p25 of 10,20,30,40,50 (h = 1)" 20.0 (q [ 50.; 10.; 40.; 20.; 30. ] 0.25)

let order_and_edges () =
  Alcotest.check close "unsorted median" 2.0 (q [ 3.; 1.; 2. ] 0.5);
  Alcotest.check close "q = 0 is the minimum" 1.0 (q [ 4.; 1.; 9. ] 0.0);
  Alcotest.check close "q = 1 is the maximum" 9.0 (q [ 4.; 1.; 9. ] 1.0);
  Alcotest.check close "single sample" 5.0 (q [ 5. ] 0.9);
  Alcotest.check close "empty median reads 0" 0.0 (Stats.median (Stats.create ()))

let growth_and_tail () =
  let s = Stats.create () in
  for i = 100 downto 1 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Stats.count s);
  Alcotest.check close "median of 1..100" 50.5 (Stats.median s);
  Alcotest.check close "p90 of 1..100 (h = 89.1)" 90.1 (Stats.quantile s 0.9);
  Alcotest.(check int) "ten samples beyond p90" 10 (Stats.beyond s 0.9);
  Alcotest.check close "sum" 5050.0 (Stats.sum s)

let () =
  Alcotest.run "perfbench"
    [
      ( "quantiles",
        [
          Alcotest.test_case "interpolated ranks" `Quick interpolated;
          Alcotest.test_case "order and edges" `Quick order_and_edges;
          Alcotest.test_case "growth and tail count" `Quick growth_and_tail;
        ] );
    ]
