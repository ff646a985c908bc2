(* The pluggable organization interface: wrapper transparency, CLI
   selector parsing, the composed (scheme-inside-each-band)
   organization end to end against real member state machines, and the
   loss-band churn invariants of its one-keytree form (Section 4). *)

open Gkm
module Key = Gkm_crypto.Key
module Keytree = Gkm_keytree.Keytree
module Member = Gkm_lkh.Member
module Rekey_msg = Gkm_lkh.Rekey_msg

module OHarness = Org_harness

(* ------------------------------------------------------------------ *)
(* Selector parsing. *)

let test_spec_of_string () =
  let ok s = Result.get_ok (Organization.spec_of_string s) in
  (match ok "tt" with
  | Organization.Scheme_cfg { Scheme.kind = Scheme.Tt; degree = 4; s_period = 10; _ } -> ()
  | _ -> Alcotest.fail "tt selector");
  (match ok "one-keytree" with
  | Organization.Scheme_cfg { Scheme.kind = Scheme.One_keytree; _ } -> ()
  | _ -> Alcotest.fail "one-keytree selector");
  (match ok "loss:0.02,0.1" with
  | Organization.Composed_cfg
      { kind = Scheme.One_keytree; assignment = Organization.By_loss [ a; b ]; _ } ->
      Alcotest.(check (float 1e-9)) "t1" 0.02 a;
      Alcotest.(check (float 1e-9)) "t2" 0.1 b
  | _ -> Alcotest.fail "loss selector");
  (match ok "random:3" with
  | Organization.Composed_cfg
      { kind = Scheme.One_keytree; assignment = Organization.Random 3; _ } -> ()
  | _ -> Alcotest.fail "random selector");
  (match ok "composed" with
  | Organization.Composed_cfg { kind = Scheme.Tt; assignment = Organization.By_loss [ t ]; _ }
    ->
      Alcotest.(check (float 1e-9)) "default threshold" 0.05 t
  | _ -> Alcotest.fail "composed default");
  (match ok "composed:qt@0.02,0.1" with
  | Organization.Composed_cfg { kind = Scheme.Qt; assignment = Organization.By_loss [ _; _ ]; _ }
    ->
      ()
  | _ -> Alcotest.fail "composed explicit");
  List.iter
    (fun (sel, name) ->
      Alcotest.(check string) sel name (Organization.spec_name (ok sel)))
    [
      ("loss:0.05", "loss-homogenized(0.05)");
      ("random:2", "random(2)");
      ("composed:one@0.05", "loss-homogenized(0.05)");
      ("composed:tt@0.02,0.1", "composed(TT-scheme@0.02,0.1)");
    ];
  (match Organization.spec_of_string ~degree:8 ~s_period:3 ~seed:7 "pt" with
  | Ok (Organization.Scheme_cfg { Scheme.kind = Scheme.Pt; degree = 8; s_period = 3; seed = 7 })
    ->
      ()
  | _ -> Alcotest.fail "defaults threaded");
  List.iter
    (fun bad ->
      match Organization.spec_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "selector %S should not parse" bad))
    [ "nope"; "loss:"; "loss:a,b"; "random:0"; "random:x"; "composed:zz"; "composed:tt@x" ]

(* ------------------------------------------------------------------ *)
(* Wrapper transparency: an Organization-wrapped scheme produces the
   exact same messages and key material as the bare scheme under the
   same script. *)

let churn_script = [ (* interval -> joins, departs *) 8, 0; 5, 2; 0, 3; 6, 4; 0, 0; 3, 1 ]

let test_of_scheme_transparent () =
  List.iter
    (fun kind ->
      let cfg = { Scheme.kind; degree = 3; s_period = 2; seed = 42 } in
      let bare = Scheme.create cfg in
      let packed = Organization.create (Organization.Scheme_cfg cfg) in
      let module O = (val packed) in
      let next = ref 0 in
      let live = ref [] in
      List.iter
        (fun (joins, departs) ->
          for _ = 1 to joins do
            let m = !next in
            incr next;
            let cls = if m mod 3 = 0 then Scheme.Short else Scheme.Long in
            let k1 = Scheme.register bare ~member:m ~cls in
            let k2 = O.register ~member:m ~cls ~loss:0.02 in
            Alcotest.(check bool) "individual keys equal" true (Key.equal k1 k2);
            live := m :: !live
          done;
          let rec take n = function
            | x :: tl when n > 0 -> x :: take (n - 1) tl
            | _ -> []
          in
          List.iter
            (fun m ->
              Scheme.enqueue_departure bare m;
              O.enqueue_departure m;
              live := List.filter (( <> ) m) !live)
            (take departs (List.rev !live));
          let m1 = Scheme.rekey bare and m2 = O.rekey () in
          (match (m1, m2) with
          | None, None -> ()
          | Some a, Some b ->
              Alcotest.(check int) "epoch" a.Rekey_msg.epoch b.Rekey_msg.epoch;
              Alcotest.(check int) "root_node" a.root_node b.root_node;
              Alcotest.(check int) "entry count" (List.length a.entries)
                (List.length b.entries)
          | _ -> Alcotest.fail "rekey presence differs");
          Alcotest.(check int) "size" (Scheme.size bare) (O.size ());
          Alcotest.(check int) "last_cost" (Scheme.last_cost bare) (O.last_cost ());
          match (Scheme.group_key bare, O.group_key ()) with
          | None, None -> ()
          | Some a, Some b ->
              Alcotest.(check bool) "group keys equal" true (Key.equal a b)
          | _ -> Alcotest.fail "group key presence differs")
        churn_script;
      Alcotest.(check (array int))
        "band_sizes = [| S; L |]"
        [| Scheme.s_size bare; Scheme.l_size bare |]
        (O.band_sizes ()))
    Scheme.all_kinds

(* ------------------------------------------------------------------ *)
(* Composed organization, end to end. *)

let composed_spec ?(kind = Scheme.Tt) ?(thresholds = [ 0.05 ]) () =
  Organization.Composed_cfg
    { Organization.kind; degree = 3; s_period = 2; seed = 11; assignment = By_loss thresholds }

let loss_for m = if m mod 2 = 0 then 0.02 else 0.2
let cls_for m = if m mod 3 = 0 then Scheme.Short else Scheme.Long

let test_composed_converges () =
  List.iter
    (fun kind ->
      let h = OHarness.create (composed_spec ~kind ()) in
      let label ivl = Printf.sprintf "%s interval %d" (Scheme.kind_name kind) ivl in
      for m = 0 to 19 do
        OHarness.register h m ~cls:(cls_for m) ~loss:(loss_for m)
      done;
      ignore (OHarness.rekey h);
      OHarness.check h (label 1);
      (* Steady churn across both bands, spanning S-period migrations. *)
      let next = ref 20 in
      for ivl = 2 to 10 do
        for _ = 1 to 3 do
          let m = !next in
          incr next;
          OHarness.register h m ~cls:(cls_for m) ~loss:(loss_for m)
        done;
        let victims = [ (ivl * 2) mod !next; (ivl * 5) mod !next ] in
        List.iter
          (fun m ->
            let module O = (val h.OHarness.org) in
            if O.is_member m then OHarness.depart h m)
          victims;
        ignore (OHarness.rekey h);
        OHarness.check h (label ivl)
      done;
      let module O = (val h.OHarness.org) in
      let sizes = O.band_sizes () in
      Alcotest.(check int) "two bands" 2 (Array.length sizes);
      Alcotest.(check bool) "both bands populated" true (sizes.(0) > 0 && sizes.(1) > 0))
    [ Scheme.One_keytree; Scheme.Qt; Scheme.Tt; Scheme.Pt ]

let test_composed_receiver_groups () =
  let h = OHarness.create (composed_spec ()) in
  for m = 0 to 15 do
    OHarness.register h m ~cls:(cls_for m) ~loss:(loss_for m)
  done;
  ignore (OHarness.rekey h);
  let module O = (val h.OHarness.org) in
  let groups = O.receiver_groups () in
  Alcotest.(check int) "one group per live band" 2 (List.length groups);
  List.iter
    (fun (node, members) ->
      Alcotest.(check bool) "synthetic node id" true (node <= -500_000_000);
      Alcotest.(check bool) "group non-empty" true (members <> []))
    groups;
  let all = List.concat_map snd groups in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "no member in two groups" (List.length all) (List.length sorted);
  Alcotest.(check int) "groups cover the membership" (O.size ()) (List.length all);
  (* The composed DEK wraps resolve to receivers through those groups. *)
  ignore
    (List.iter
       (fun m -> if m mod 4 = 0 then OHarness.depart h m)
       (List.init 16 Fun.id));
  match OHarness.rekey h with
  | None -> Alcotest.fail "expected a rekey message"
  | Some msg ->
      let wraps =
        List.filter
          (fun (e : Rekey_msg.entry) -> e.target_node = Scheme.dek_node && e.level = 0)
          msg.entries
      in
      Alcotest.(check int) "one composed wrap per band" 2 (List.length wraps)

let test_composed_single_band_degenerates () =
  (* All members in band 0: the composed organization must behave as
     the bare band scheme — same costs, same keys, no composed DEK
     layer, message rooted at the band's own root. *)
  let cfg = { Organization.kind = Scheme.Tt; degree = 3; s_period = 2; seed = 5;
              assignment = By_loss [ 0.05 ] } in
  let packed = Organization.create (Organization.Composed_cfg cfg) in
  let module O = (val packed) in
  let bare =
    (* Band 0's layout: S-tree ids from 0, L-tree ids from 10^9, its DEK
       at -(500_000_000 + 0). *)
    Scheme.create ~s_base:0 ~l_base:1_000_000_000 ~dek_id:(-500_000_000)
      { Scheme.kind = Scheme.Tt; degree = 3; s_period = 2; seed = 5 + 7919 }
  in
  let next = ref 0 in
  List.iter
    (fun (joins, departs) ->
      for _ = 1 to joins do
        let m = !next in
        incr next;
        let k1 = Scheme.register bare ~member:m ~cls:(cls_for m) in
        let k2 = O.register ~member:m ~cls:(cls_for m) ~loss:0.01 in
        Alcotest.(check bool) "individual keys equal" true (Key.equal k1 k2)
      done;
      List.init departs (fun i -> (i * 7) mod !next)
      |> List.sort_uniq compare
      |> List.iter (fun m ->
             if Scheme.is_member bare m && O.is_member m then begin
               Scheme.enqueue_departure bare m;
               O.enqueue_departure m
             end);
      let m1 = Scheme.rekey bare and m2 = O.rekey () in
      (match (m1, m2) with
      | None, None -> ()
      | Some a, Some b ->
          Alcotest.(check int) "root_node" a.Rekey_msg.root_node b.Rekey_msg.root_node;
          Alcotest.(check int) "entry count" (List.length a.entries)
            (List.length b.entries);
          Alcotest.(check int) "cost" (Scheme.last_cost bare) (O.last_cost ())
      | _ -> Alcotest.fail "rekey presence differs");
      match (Scheme.group_key bare, O.group_key ()) with
      | Some a, Some b -> Alcotest.(check bool) "group keys equal" true (Key.equal a b)
      | None, None -> ()
      | _ -> Alcotest.fail "group key presence differs")
    churn_script

let test_composed_rejoin () =
  let h = OHarness.create (composed_spec ()) in
  for m = 0 to 9 do
    OHarness.register h m ~cls:Scheme.Long ~loss:0.02
  done;
  ignore (OHarness.rekey h);
  OHarness.depart h 4;
  ignore (OHarness.rekey h);
  OHarness.check h "after eviction";
  (* Rejoin in the other band: must be admitted cleanly. *)
  OHarness.register h 4 ~cls:Scheme.Long ~loss:0.2;
  ignore (OHarness.rekey h);
  let module O = (val h.OHarness.org) in
  Alcotest.(check bool) "rejoined" true (O.is_member 4);
  Alcotest.(check int) "band 1 populated" 1 (O.band_sizes ()).(1);
  OHarness.check h "after rejoin"

(* ------------------------------------------------------------------ *)
(* Loss-band churn invariants: one-keytree bands placed by loss, the
   organization Section 4 reports on. *)

let loss_bands thresholds =
  Organization.create
    (Organization.Composed_cfg
       { kind = Scheme.One_keytree; degree = 3; s_period = 0; seed = 21;
         assignment = By_loss thresholds })

(* The band a current member lives in, read off its band-DEK receiver
   group ([band_dek_id b = -(500_000_000 + b)]). *)
let band_of_member (module O : Organization.S) m =
  match List.find_opt (fun (_, ms) -> List.mem m ms) (O.receiver_groups ()) with
  | Some (node, _) -> -node - 500_000_000
  | None -> Alcotest.failf "member %d is in no band" m

let test_loss_tree_no_duplicates () =
  let org = loss_bands [ 0.05; 0.15 ] in
  let module O = (val org) in
  let next = ref 0 in
  for round = 1 to 8 do
    for _ = 1 to 6 do
      let m = !next in
      incr next;
      ignore (O.register ~member:m ~cls:Scheme.Long ~loss:(float_of_int (m mod 5) /. 20.0))
    done;
    List.iter
      (fun m -> if O.is_member m then O.enqueue_departure m)
      [ (round * 3) mod !next; (round * 11) mod !next ];
    ignore (O.rekey ());
    let ms = List.concat_map Keytree.members (O.trees ()) |> List.sort compare in
    Alcotest.(check int)
      (Printf.sprintf "round %d: no member in two bands" round)
      (List.length (List.sort_uniq compare ms))
      (List.length ms);
    Alcotest.(check int) (Printf.sprintf "round %d: size agrees" round) (O.size ())
      (List.length ms);
    (* One tree per band, in band order: the receiver groups agree
       with physical tree placement. *)
    List.iteri
      (fun band tree ->
        List.iter
          (fun m ->
            Alcotest.(check int)
              (Printf.sprintf "member %d band" m)
              band (band_of_member org m))
          (Keytree.members tree))
      (O.trees ())
  done

let test_loss_tree_band_stability () =
  let org = loss_bands [ 0.05 ] in
  let module O = (val org) in
  let register m loss = ignore (O.register ~member:m ~cls:Scheme.Long ~loss) in
  for m = 0 to 11 do
    register m (loss_for m)
  done;
  ignore (O.rekey ());
  let before = List.map (fun m -> (m, band_of_member org m)) [ 0; 1; 2; 3 ] in
  (* Unrelated churn: other members leave and join; survivors must not
     move between bands (Section 4.2: no migration). *)
  List.iter O.enqueue_departure [ 6; 7; 8 ];
  for m = 12 to 17 do
    register m (loss_for m)
  done;
  ignore (O.rekey ());
  List.iter
    (fun (m, band) ->
      Alcotest.(check int) (Printf.sprintf "member %d stayed in band" m) band
        (band_of_member org m))
    before;
  (* A departed member that rejoins with a different loss re-enters in
     the band matching the new report. *)
  O.enqueue_departure 0;
  ignore (O.rekey ());
  register 0 0.2;
  ignore (O.rekey ());
  Alcotest.(check int) "rejoin lands in the new band" 1 (band_of_member org 0)

let test_loss_tree_single_band_degenerate () =
  (* Every member below the threshold: one live tree, so messages must
     look exactly like the one-keytree baseline — rooted at the tree
     root, no level shift, no synthetic DEK wraps. *)
  let module O = (val loss_bands [ 0.5 ]) in
  let next = ref 0 in
  List.iter
    (fun (joins, departs) ->
      for _ = 1 to joins do
        let m = !next in
        incr next;
        ignore (O.register ~member:m ~cls:Scheme.Long ~loss:0.01)
      done;
      List.init departs (fun i -> (i * 5) mod !next)
      |> List.sort_uniq compare
      |> List.iter (fun m -> if O.is_member m then O.enqueue_departure m);
      match O.rekey () with
      | None -> ()
      | Some msg ->
          let tree =
            match List.filter (fun tr -> Keytree.size tr > 0) (O.trees ()) with
            | [ t ] -> t
            | _ -> Alcotest.fail "expected exactly one live tree"
          in
          Alcotest.(check int) "rooted at the tree root"
            (Option.get (Keytree.root_id tree))
            msg.Rekey_msg.root_node;
          Alcotest.(check bool) "no synthetic DEK entries" true
            (List.for_all
               (fun (e : Rekey_msg.entry) -> e.target_node <> Scheme.dek_node)
               msg.entries);
          Alcotest.(check bool) "group key is the tree key" true
            (match (O.group_key (), Keytree.group_key tree) with
            | Some a, Some b -> Key.equal a b
            | _ -> false))
    churn_script

(* ------------------------------------------------------------------ *)
(* Section 4 pinned across the move from a dedicated loss-tree engine
   to one-keytree bands. The values were captured from the dedicated
   engine; node ids and key bytes differ between the two, so only
   key-independent results are pinned. Floats are IEEE-754 bit
   patterns. *)

type session_pin = {
  intervals : int;
  rekeys : int;
  mean_keys : int64;
  mean_keys_sent : int64;
  mean_rounds : int64;
  mean_packets : int64;
  deadline_misses : int;
  mean_size : int64;
  final_size : int;
  verified : bool;
  faults_injected : int;
  restores : int;
  resyncs : int;
  rejoins : int;
  recovered : bool;
}

let session_pins : (string * session_pin) list =
  [
  ( "loss:0.05",
    { intervals = 20; rekeys = 20; mean_keys = 4632444797959798783L; mean_keys_sent = 4634770484954870579L;
      mean_rounds = 4614275588213125938L; mean_packets = 4617202927970916761L; deadline_misses = 0;
      mean_size = 4639643520489173811L; final_size = 161; verified = true; faults_injected = 0;
      restores = 0; resyncs = 0; rejoins = 0; recovered = true } );
  ( "loss:0.01,0.1",
    { intervals = 20; rekeys = 20; mean_keys = 4632444797959798783L; mean_keys_sent = 4634770484954870579L;
      mean_rounds = 4614275588213125938L; mean_packets = 4617202927970916761L; deadline_misses = 0;
      mean_size = 4639643520489173811L; final_size = 161; verified = true; faults_injected = 0;
      restores = 0; resyncs = 0; rejoins = 0; recovered = true } );
  ( "random:2",
    { intervals = 20; rekeys = 20; mean_keys = 4632564424824900813L; mean_keys_sent = 4635565651764078183L;
      mean_rounds = 4614951128157231512L; mean_packets = 4618103647896390859L; deadline_misses = 0;
      mean_size = 4639643520489173811L; final_size = 161; verified = true; faults_injected = 0;
      restores = 0; resyncs = 0; rejoins = 0; recovered = true } );
  ]

let test_section4_session_pinned () =
  List.iter
    (fun (sel, pin) ->
      let r =
        Session.run
          {
            Session.default_config with
            n_target = 150;
            horizon = 1200.0;
            seed = 5;
            org = Result.get_ok (Organization.spec_of_string ~seed:3 sel);
          }
      in
      let bits = Int64.bits_of_float in
      let got : session_pin =
        {
          intervals = r.intervals;
          rekeys = r.rekeys;
          mean_keys = bits r.mean_keys;
          mean_keys_sent = bits r.mean_keys_sent;
          mean_rounds = bits r.mean_rounds;
          mean_packets = bits r.mean_packets;
          deadline_misses = r.deadline_misses;
          mean_size = bits r.mean_size;
          final_size = r.final_size;
          verified = r.verified;
          faults_injected = r.faults_injected;
          restores = r.restores;
          resyncs = r.resyncs;
          rejoins = r.rejoins;
          recovered = r.recovered;
        }
      in
      Alcotest.(check bool) (sel ^ ": session result pinned") true (got = pin))
    session_pins

type loss_pin = {
  mean_keys_sent : int64;
  mean_bandwidth : int64;
  mean_packets : int64;
  mean_rounds : int64;
  undelivered : int;
}

let loss_pins : (string * loss_pin) list =
  [
  ( "one",
    { mean_keys_sent = 4646295712438768981L; mean_bandwidth = 4646295712438768981L; mean_packets = 4626228892224105131L;
      mean_rounds = 4616564918023705941L; undelivered = 0 } );
  ( "random-2",
    { mean_keys_sent = 4646166703074443264L; mean_bandwidth = 4646166703074443264L; mean_packets = 4626228892224105131L;
      mean_rounds = 4616940217992653483L; undelivered = 0 } );
  ( "homogenized-0.05",
    { mean_keys_sent = 4645550976562888704L; mean_bandwidth = 4645550976562888704L; mean_packets = 4625665942270683819L;
      mean_rounds = 4616189618054758400L; undelivered = 0 } );
  ( "mispartitioned-0.05-0.3",
    { mean_keys_sent = 4645703442175273643L; mean_bandwidth = 4645703442175273643L; mean_packets = 4625853592255157589L;
      mean_rounds = 4616564918023705941L; undelivered = 0 } );
  ]

let test_section4_run_loss_pinned () =
  List.iter
    (fun (label, organization) ->
      let r =
        Sim_driver.run_loss ~seed:4 ~trials:3 ~n:600 ~l:48 ~alpha:0.3 ~ph:0.2 ~pl:0.02
          ~organization ~transport:Sim_driver.Wka_bkr_transport ()
      in
      let bits = Int64.bits_of_float in
      let pin = List.assoc label loss_pins in
      Alcotest.(check bool) (label ^ ": run_loss pinned") true
        (pin
        = {
            mean_keys_sent = bits r.mean_keys_sent;
            mean_bandwidth = bits r.mean_bandwidth;
            mean_packets = bits r.mean_packets;
            mean_rounds = bits r.mean_rounds;
            undelivered = r.undelivered;
          }))
    [
      ("one", Sim_driver.Org_one);
      ("random-2", Sim_driver.Org_random 2);
      ("homogenized-0.05", Sim_driver.Org_homogenized 0.05);
      ("mispartitioned-0.05-0.3", Sim_driver.Org_mispartitioned { threshold = 0.05; beta = 0.3 });
    ]

(* ------------------------------------------------------------------ *)
(* The fan-out audience. A rekey server sends each fresh member (one
   admitted this rekey, or moved to a new leaf) its whole key path by
   unicast, and fans out only [Rekey_msg.for_audience] of the entries.
   Under random churn — joins of both classes and loss rates, leaves,
   S-period 3 migrations — every rekey is checked by brute force over
   every member's path: an entry is dropped iff every holder of its
   wrapping node is fresh; its [receivers] is that holder count; and
   every member ends on the group DEK, fresh ones by installing their
   path, the rest by processing only the kept entries. *)

let audience_oracle selector () =
  let spec =
    match Organization.spec_of_string ~s_period:3 selector with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let module O = (val Organization.create spec : Organization.S) in
  let rng = Random.State.make [| Hashtbl.hash selector |] in
  let states = Hashtbl.create 64 and ids = ref [] and next = ref 0 in
  let kept = ref 0 and dropped = ref 0 in
  for tick = 1 to 150 do
    let label = Printf.sprintf "%s rekey %d" selector tick in
    let before = Hashtbl.create 64 in
    List.iter
      (fun m -> Hashtbl.replace before m (fst (List.hd (O.member_path m))))
      (List.filter O.is_member !ids);
    for _ = 1 to Random.State.int rng 4 do
      incr next;
      ignore
        (O.register ~member:!next
           ~cls:(if Random.State.bool rng then Scheme.Short else Scheme.Long)
           ~loss:(if Random.State.bool rng then 0.2 else 0.01));
      ids := !next :: !ids
    done;
    Hashtbl.iter
      (fun m _ -> if Random.State.int rng 5 = 0 then O.enqueue_departure m)
      before;
    match O.rekey () with
    | None -> ()
    | Some msg ->
        ids := List.filter O.is_member !ids;
        Hashtbl.filter_map_inplace (fun m st -> if O.is_member m then Some st else None) states;
        let paths = List.map (fun m -> (m, O.member_path m)) !ids in
        let fresh (m, path) = Hashtbl.find_opt before m <> Some (fst (List.hd path)) in
        let holders node =
          List.filter (fun (_, path) -> List.mem_assoc node path) paths
        in
        let expect =
          List.filter
            (fun (e : Rekey_msg.entry) ->
              let hs = holders e.wrapped_under in
              Alcotest.(check int)
                (Printf.sprintf "%s: receivers of K%d under K%d" label e.target_node
                   e.wrapped_under)
                (List.length hs) e.receivers;
              not (List.for_all fresh hs))
            msg.entries
        in
        let wire =
          Rekey_msg.for_audience ~fresh:(List.map snd (List.filter fresh paths)) msg.entries
        in
        Alcotest.(check bool) (label ^ ": kept = entries a non-fresh member holds") true
          (List.equal ( == ) wire expect);
        kept := !kept + List.length wire;
        dropped := !dropped + List.length msg.entries - List.length wire;
        List.iter
          (fun ((m, path) as p) ->
            if fresh p then begin
              let leaf, individual = List.hd path in
              let st = Member.create ~id:m ~leaf_node:leaf ~individual_key:individual in
              Member.install_path st path;
              Member.set_root st msg.root_node;
              Hashtbl.replace states m st
            end
            else ignore (Member.process (Hashtbl.find states m) { msg with entries = wire }))
          paths;
        let dek = O.group_key () in
        Hashtbl.iter
          (fun m st ->
            if not (Option.equal Key.equal (Member.group_key st) dek) then
              Alcotest.failf "%s: member %d is off the group DEK" label m)
          states
  done;
  Alcotest.(check bool) (selector ^ ": entries were dropped") true (!dropped > 0);
  Alcotest.(check bool) (selector ^ ": entries were kept") true (!kept > 0)

let audience_cases =
  List.map
    (fun sel ->
      Alcotest.test_case (sel ^ ": fan-out = entries a non-fresh member holds") `Quick
        (audience_oracle sel))
    [ "one"; "qt"; "tt"; "pt"; "loss:0.05"; "random:2"; "composed"; "composed:qt" ]

(* ------------------------------------------------------------------ *)
(* The individual key. A key server reads a member's individual key
   back as the head of its [member_path], so the organization must
   keep it there: under churn past the S-period, whose migrations QT
   and TT end by moving members onto an L leaf, every member's path
   head stays the key [register] returned for it. *)

let path_head_oracle selector () =
  let spec =
    match Organization.spec_of_string ~s_period:3 selector with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let module O = (val Organization.create spec : Organization.S) in
  let rng = Random.State.make [| Hashtbl.hash selector |] in
  let keys = Hashtbl.create 64 and leaves = Hashtbl.create 64 in
  let next = ref 0 and moves = ref 0 in
  for tick = 1 to 40 do
    Hashtbl.iter (fun m _ -> if Random.State.int rng 6 = 0 then O.enqueue_departure m) leaves;
    for _ = 0 to Random.State.int rng 3 do
      incr next;
      Hashtbl.replace keys !next
        (O.register ~member:!next
           ~cls:(if Random.State.bool rng then Scheme.Short else Scheme.Long)
           ~loss:(if Random.State.bool rng then 0.2 else 0.01))
    done;
    ignore (O.rekey ());
    Hashtbl.filter_map_inplace (fun m k -> if O.is_member m then Some k else None) keys;
    Hashtbl.filter_map_inplace (fun m l -> if O.is_member m then Some l else None) leaves;
    Hashtbl.iter
      (fun m key ->
        match O.member_path m with
        | (leaf, head) :: _ ->
            if not (Key.equal head key) then
              Alcotest.failf "%s rekey %d: member %d's path head is not its key" selector tick m;
            (match Hashtbl.find_opt leaves m with
            | Some l when l <> leaf -> incr moves
            | _ -> ());
            Hashtbl.replace leaves m leaf
        | [] -> Alcotest.failf "%s rekey %d: member %d has an empty path" selector tick m)
      keys
  done;
  if List.mem selector [ "qt"; "tt" ] then
    Alcotest.(check bool) (selector ^ ": members migrated") true (!moves > 0)

let path_head_cases =
  List.map
    (fun sel ->
      Alcotest.test_case (sel ^ ": path head is the registered key") `Quick (path_head_oracle sel))
    [ "one"; "qt"; "tt"; "pt"; "composed" ]

(* ------------------------------------------------------------------ *)
(* Server memory: a TT organization at N = 4096 after its initial
   admission and four churned rekeys (64 departures and 64 joins each).
   Most of its words are the AES schedules cached on tree nodes, each
   of which only ever encrypts, so none may hold an inverse schedule.
   The bound is the measured 84 words per member plus ~10%; caching
   the inverse schedules too would add ~85. *)

let words_per_member_bound = 92

let test_tt_memory_per_member () =
  let n = 4096 in
  let cfg = { Scheme.kind = Scheme.Tt; degree = 4; s_period = 10; seed = 3 } in
  let module O = (val Organization.create (Organization.Scheme_cfg cfg)) in
  let cls m = if m mod 5 = 0 then Scheme.Short else Scheme.Long in
  for m = 0 to n - 1 do
    ignore (O.register ~member:m ~cls:(cls m) ~loss:0.0)
  done;
  ignore (O.rekey ());
  for i = 0 to 3 do
    for j = 0 to 63 do
      O.enqueue_departure ((64 * i) + j);
      let m = n + (64 * i) + j in
      ignore (O.register ~member:m ~cls:(cls m) ~loss:0.0)
    done;
    ignore (O.rekey ())
  done;
  Alcotest.(check int) "members" n (O.size ());
  let words = Obj.reachable_words (Obj.repr (module O : Organization.S)) in
  let per_member = words / n in
  if per_member > words_per_member_bound then
    Alcotest.failf "%d words per member (bound %d)" per_member words_per_member_bound

let () =
  Alcotest.run "organization"
    [
      ( "spec",
        [ Alcotest.test_case "selector parsing" `Quick test_spec_of_string ] );
      ( "wrappers",
        [
          Alcotest.test_case "of_scheme is transparent" `Quick test_of_scheme_transparent;
        ] );
      ( "composed",
        [
          Alcotest.test_case "converges and locks out under churn" `Quick
            test_composed_converges;
          Alcotest.test_case "receiver groups partition the membership" `Quick
            test_composed_receiver_groups;
          Alcotest.test_case "single band degenerates to the bare scheme" `Quick
            test_composed_single_band_degenerates;
          Alcotest.test_case "departed member can rejoin the other band" `Quick
            test_composed_rejoin;
        ] );
      ( "loss-tree churn",
        [
          Alcotest.test_case "no duplicate members across bands" `Quick
            test_loss_tree_no_duplicates;
          Alcotest.test_case "band assignment stable, rejoin rebands" `Quick
            test_loss_tree_band_stability;
          Alcotest.test_case "single band degenerates to one-keytree" `Quick
            test_loss_tree_single_band_degenerate;
        ] );
      (* Alcotest truncates case names to fit the longest suite name; a
         suite name over 15 characters would shorten every other case's. *)
      ("fan-out", audience_cases);
      ("path head", path_head_cases);
      ( "section 4 pin",
        [
          Alcotest.test_case "session results" `Quick test_section4_session_pinned;
          Alcotest.test_case "run_loss under WKA-BKR" `Quick test_section4_run_loss_pinned;
        ] );
      ("memory", [ Alcotest.test_case "TT words per member" `Quick test_tt_memory_per_member ]);
    ]
