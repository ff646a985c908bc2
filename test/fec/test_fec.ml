open Gkm_fec

(* ------------------------------------------------------------------ *)
(* GF(256)                                                             *)

let test_gf_add_is_xor () =
  Alcotest.(check int) "add" (0x57 lxor 0x83) (Gf256.add 0x57 0x83);
  Alcotest.(check int) "sub = add" (Gf256.add 0x13 0xfe) (Gf256.sub 0x13 0xfe)

let test_gf_mul_identities () =
  for a = 0 to 255 do
    Alcotest.(check int) "a*1 = a" a (Gf256.mul a 1);
    Alcotest.(check int) "a*0 = 0" 0 (Gf256.mul a 0);
    Alcotest.(check int) "0*a = 0" 0 (Gf256.mul 0 a)
  done

let test_gf_inverse () =
  for a = 1 to 255 do
    Alcotest.(check int) (Printf.sprintf "a * (1 / a) = 1 for %d" a) 1 (Gf256.mul a (Gf256.div 1 a))
  done;
  Alcotest.check_raises "1 / 0" Division_by_zero (fun () -> ignore (Gf256.div 1 0))

let test_gf_div () =
  Alcotest.(check int) "div by self" 1 (Gf256.div 0x42 0x42);
  Alcotest.(check int) "0 / a = 0" 0 (Gf256.div 0 7);
  Alcotest.check_raises "div by 0" Division_by_zero (fun () -> ignore (Gf256.div 5 0))

(* The generator 2 has order 255: its powers, the exp table [mul]
   and [div] index by log, reach every non-zero element exactly once. *)
let test_gf_exp_log () =
  let seen = Array.make 256 false in
  let x = ref 1 in
  for i = 0 to 254 do
    Alcotest.(check bool) (Printf.sprintf "2^%d = %d is new" i !x) false seen.(!x);
    seen.(!x) <- true;
    x := Gf256.mul !x 2
  done;
  Alcotest.(check int) "generator order: 2^255 wraps" 1 !x

let test_gf_pow () =
  let pow a n = List.fold_left Gf256.mul 1 (List.init n (fun _ -> a)) in
  Alcotest.(check int) "a^2 = a*a" (Gf256.mul 0x53 0x53) (pow 0x53 2);
  (* Fermat: a^255 = 1 in GF(256)*. *)
  for a = 1 to 255 do
    Alcotest.(check int) (Printf.sprintf "%d^255 = 1" a) 1 (pow a 255)
  done

let gf_elt = QCheck.int_range 0 255
let gf_nonzero = QCheck.int_range 1 255

let prop_gf_mul_commutative =
  QCheck.Test.make ~name:"gf mul commutative" ~count:500 (QCheck.pair gf_elt gf_elt)
    (fun (a, b) -> Gf256.mul a b = Gf256.mul b a)

let prop_gf_mul_associative =
  QCheck.Test.make ~name:"gf mul associative" ~count:500 (QCheck.triple gf_elt gf_elt gf_elt)
    (fun (a, b, c) -> Gf256.mul a (Gf256.mul b c) = Gf256.mul (Gf256.mul a b) c)

let prop_gf_distributive =
  QCheck.Test.make ~name:"gf distributive" ~count:500 (QCheck.triple gf_elt gf_elt gf_elt)
    (fun (a, b, c) -> Gf256.mul a (Gf256.add b c) = Gf256.add (Gf256.mul a b) (Gf256.mul a c))

let prop_gf_div_inverts_mul =
  QCheck.Test.make ~name:"gf div inverts mul" ~count:500 (QCheck.pair gf_elt gf_nonzero)
    (fun (a, b) -> Gf256.div (Gf256.mul a b) b = a)

(* ------------------------------------------------------------------ *)
(* Reed-Solomon                                                        *)

let make_data rng k len =
  Array.init k (fun _ -> Gkm_crypto.Prng.bytes rng len)

let shards_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Bytes.equal x y) a b

let test_rs_roundtrip_no_loss () =
  let rng = Gkm_crypto.Prng.create 1 in
  let c = Reed_solomon.create ~k:8 in
  let data = make_data rng 8 32 in
  let shards = Array.to_list (Array.mapi (fun i s -> (i, s)) data) in
  match Reed_solomon.decode c ~shards with
  | Some recovered -> Alcotest.(check bool) "identity decode" true (shards_equal data recovered)
  | None -> Alcotest.fail "decode failed with all data shards"

let test_rs_recover_from_parity_only () =
  let rng = Gkm_crypto.Prng.create 2 in
  let c = Reed_solomon.create ~k:5 in
  let data = make_data rng 5 64 in
  let parity = Reed_solomon.encode c ~data ~nparity:5 in
  let shards = Array.to_list (Array.mapi (fun j p -> (5 + j, p)) parity) in
  match Reed_solomon.decode c ~shards with
  | Some recovered ->
      Alcotest.(check bool) "recovered from parity alone" true (shards_equal data recovered)
  | None -> Alcotest.fail "decode failed with k parity shards"

let test_rs_insufficient_shards () =
  let rng = Gkm_crypto.Prng.create 3 in
  let c = Reed_solomon.create ~k:4 in
  let data = make_data rng 4 16 in
  let shards = [ (0, data.(0)); (2, data.(2)); (3, data.(3)) ] in
  Alcotest.(check bool) "3 < k shards -> None" true (Reed_solomon.decode c ~shards = None)

let test_rs_duplicates_do_not_count () =
  let rng = Gkm_crypto.Prng.create 4 in
  let c = Reed_solomon.create ~k:3 in
  let data = make_data rng 3 8 in
  let shards = [ (0, data.(0)); (0, data.(0)); (1, data.(1)) ] in
  Alcotest.(check bool) "duplicate shard ignored" true (Reed_solomon.decode c ~shards = None)

let test_rs_k1_replication () =
  (* With k = 1 every parity shard equals the data shard: pure replication. *)
  let rng = Gkm_crypto.Prng.create 5 in
  let c = Reed_solomon.create ~k:1 in
  let data = make_data rng 1 20 in
  let parity = Reed_solomon.encode c ~data ~nparity:3 in
  Array.iter
    (fun p -> Alcotest.(check bool) "parity = data for k=1" true (Bytes.equal p data.(0)))
    parity

let test_rs_bad_args () =
  let c = Reed_solomon.create ~k:4 in
  (match Reed_solomon.parity_shard c ~data:[| Bytes.create 4 |] ~index:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong shard count accepted");
  (match
     Reed_solomon.parity_shard c
       ~data:[| Bytes.create 4; Bytes.create 4; Bytes.create 4; Bytes.create 5 |]
       ~index:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unequal lengths accepted");
  (match Reed_solomon.create ~k:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 accepted");
  match Reed_solomon.create ~k:256 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=256 accepted"

let test_rs_max_parity () =
  let c = Reed_solomon.create ~k:200 in
  Alcotest.(check int) "max parity" 56 (Reed_solomon.max_parity c)

(* Any k-subset of (k data + r parity) shards decodes to the data. *)
let prop_rs_any_k_subset =
  let gen =
    QCheck.Gen.(
      let* k = 1 -- 10 in
      let* r = 0 -- 10 in
      let* len = 1 -- 40 in
      let* seed = 0 -- 10000 in
      let* picks = list_size (return (k + r)) bool in
      return (k, r, len, seed, picks))
  in
  QCheck.Test.make ~name:"rs: any k distinct shards decode" ~count:300
    (QCheck.make
       ~print:(fun (k, r, len, seed, _) -> Printf.sprintf "k=%d r=%d len=%d seed=%d" k r len seed)
       gen)
    (fun (k, r, len, seed, picks) ->
      let rng = Gkm_crypto.Prng.create seed in
      let c = Reed_solomon.create ~k in
      let data = make_data rng k len in
      let parity = Reed_solomon.encode c ~data ~nparity:r in
      let all =
        Array.to_list (Array.mapi (fun i s -> (i, s)) data)
        @ Array.to_list (Array.mapi (fun j p -> (k + j, p)) parity)
      in
      (* Keep the shards selected by [picks]; pad deterministically to
         at least k shards by re-adding dropped ones in order. *)
      let picked = List.filteri (fun i _ -> List.nth picks i) all in
      let dropped = List.filteri (fun i _ -> not (List.nth picks i)) all in
      let rec pad chosen rest =
        if List.length chosen >= k then chosen
        else
          match rest with
          | [] -> chosen
          | s :: tl -> pad (s :: chosen) tl
      in
      let shards = pad picked dropped in
      match Reed_solomon.decode c ~shards with
      | Some recovered -> shards_equal data recovered
      | None -> List.length shards < k)

let prop_rs_parity_deterministic =
  QCheck.Test.make ~name:"rs: parity generation deterministic" ~count:100
    QCheck.(triple (int_range 1 12) (int_range 0 12) small_nat)
    (fun (k, j, seed) ->
      let j = min j (256 - k - 1) in
      let rng = Gkm_crypto.Prng.create seed in
      let c = Reed_solomon.create ~k in
      let data = make_data rng k 16 in
      Bytes.equal
        (Reed_solomon.parity_shard c ~data ~index:j)
        (Reed_solomon.parity_shard c ~data ~index:j))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_fec"
    [
      ( "gf256",
        [
          Alcotest.test_case "add is xor" `Quick test_gf_add_is_xor;
          Alcotest.test_case "mul identities" `Quick test_gf_mul_identities;
          Alcotest.test_case "inverse" `Quick test_gf_inverse;
          Alcotest.test_case "div" `Quick test_gf_div;
          Alcotest.test_case "exp/log" `Quick test_gf_exp_log;
          Alcotest.test_case "pow" `Quick test_gf_pow;
        ]
        @ qsuite
            [
              prop_gf_mul_commutative;
              prop_gf_mul_associative;
              prop_gf_distributive;
              prop_gf_div_inverts_mul;
            ] );
      ( "reed_solomon",
        [
          Alcotest.test_case "identity decode" `Quick test_rs_roundtrip_no_loss;
          Alcotest.test_case "parity-only recovery" `Quick test_rs_recover_from_parity_only;
          Alcotest.test_case "insufficient shards" `Quick test_rs_insufficient_shards;
          Alcotest.test_case "duplicates don't count" `Quick test_rs_duplicates_do_not_count;
          Alcotest.test_case "k=1 is replication" `Quick test_rs_k1_replication;
          Alcotest.test_case "argument validation" `Quick test_rs_bad_args;
          Alcotest.test_case "max parity" `Quick test_rs_max_parity;
        ]
        @ qsuite [ prop_rs_any_k_subset; prop_rs_parity_deterministic ] );
    ]
