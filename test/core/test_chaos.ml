(* Fault injection and crash recovery, end to end: the
   crash-at-every-interval sweep over every organization family,
   organization snapshot round trips, and the session-level recovery
   paths (resync, rejoin, determinism). *)

module Key = Gkm_crypto.Key
module Fault = Gkm_fault.Fault
open Gkm

(* ------------------------------------------------------------------ *)
(* Organization snapshot round trip                                    *)

let spec_of s = Result.get_ok (Organization.spec_of_string ~degree:3 ~s_period:5 ~seed:5 s)

let roundtrip_spec org_str () =
  let spec = spec_of org_str in
  let org = Organization.create spec in
  let module O = (val org : Organization.S) in
  List.iteri
    (fun i m ->
      ignore
        (O.register ~member:m
           ~cls:(if i mod 3 = 0 then Scheme.Short else Scheme.Long)
           ~loss:(if i mod 4 = 0 then 0.2 else 0.01)))
    (List.init 30 (fun i -> i + 1));
  ignore (O.rekey ());
  (* Leave churn in flight so pending state is exercised too. *)
  List.iter (fun m -> O.enqueue_departure m) [ 3; 7 ];
  ignore (O.register ~member:77 ~cls:Scheme.Long ~loss:0.01);
  let blob = O.snapshot () in
  match Organization.restore spec blob with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok org' ->
      let module R = (val org' : Organization.S) in
      Alcotest.(check int) "size" (O.size ()) (R.size ());
      Alcotest.(check int) "interval" (O.interval ()) (R.interval ());
      Alcotest.(check (list int)) "members"
        (List.filter O.is_member (List.init 80 Fun.id))
        (List.filter R.is_member (List.init 80 Fun.id));
      (* The decisive property: both instances continue with the same
         churn and draw the exact same DEK sequence. *)
      let continue (module X : Organization.S) =
        List.map
          (fun step ->
            (match step with
            | 0 -> X.enqueue_departure 11
            | 1 -> ignore (X.register ~member:88 ~cls:Scheme.Short ~loss:0.3)
            | _ -> ());
            ignore (X.rekey ());
            match X.group_key () with None -> "-" | Some k -> Key.fingerprint k)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list string)) "identical DEK continuation" (continue (module O))
        (continue (module R))

let test_restore_rejects_garbage () =
  List.iter
    (fun s ->
      let spec = spec_of s in
      (match Organization.restore spec (Bytes.of_string "GKXXjunk") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: junk accepted" s);
      let org = Organization.create spec in
      let module O = (val org : Organization.S) in
      let blob = O.snapshot () in
      match Organization.restore spec (Bytes.sub blob 0 (Bytes.length blob - 1)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: truncation accepted" s)
    [ "one"; "tt"; "loss:0.05"; "random:2"; "composed" ]

(* A rekey message as one comparable string: header, every entry
   field and a digest of each ciphertext. *)
let msg_fingerprint = function
  | None -> "none"
  | Some (m : Gkm_lkh.Rekey_msg.t) ->
      Printf.sprintf "%d/%d:%s" m.epoch m.root_node
        (String.concat ";"
           (List.map
              (fun (e : Gkm_lkh.Rekey_msg.entry) ->
                Printf.sprintf "%d.%d.%d.%d.%d.%s" e.target_node e.target_version e.level
                  e.wrapped_under e.receivers
                  (Digest.to_hex (Digest.bytes e.ciphertext)))
              m.entries))

let test_snapshot_pure () =
  (* Taking a snapshot draws nothing: two snapshots are the same bytes,
     and the snapshotted instance rekeys exactly like a clone restored
     from it. *)
  List.iter
    (fun s ->
      let spec = spec_of s in
      let module O = (val Organization.create spec : Organization.S) in
      List.iter
        (fun m ->
          ignore
            (O.register ~member:m
               ~cls:(if m mod 3 = 0 then Scheme.Short else Scheme.Long)
               ~loss:(if m mod 4 = 0 then 0.2 else 0.01)))
        (List.init 30 (fun i -> i + 1));
      ignore (O.rekey ());
      let b1 = O.snapshot () in
      Alcotest.(check bool) (s ^ ": idempotent") true (Bytes.equal b1 (O.snapshot ()));
      let module C = (val Result.get_ok (Organization.restore spec b1) : Organization.S) in
      List.iter
        (fun (module X : Organization.S) ->
          ignore (X.register ~member:99 ~cls:Scheme.Long ~loss:0.01))
        [ (module O); (module C) ];
      Alcotest.(check string) (s ^ ": same next rekey")
        (msg_fingerprint (O.rekey ()))
        (msg_fingerprint (C.rekey ())))
    [ "one"; "tt"; "loss:0.05"; "random:2"; "composed" ]

(* Apply an op only when the organization would accept it, so
   arbitrary op lists become valid churn prefixes. [touched] holds the
   members with a join or departure pending this interval. *)
let apply_op (module X : Organization.S) touched op =
  match op with
  | `Join m ->
      if (not (X.is_member m)) && not (Hashtbl.mem touched m) then begin
        ignore (X.register ~member:m ~cls:Scheme.Long ~loss:0.01);
        Hashtbl.replace touched m ()
      end
  | `Depart m ->
      if X.is_member m && not (Hashtbl.mem touched m) then begin
        X.enqueue_departure m;
        Hashtbl.replace touched m ()
      end
  | `Rekey ->
      ignore (X.rekey ());
      Hashtbl.reset touched

let prop_one_keytree_prefix_roundtrip =
  QCheck.Test.make ~name:"one-keytree prefix round trip" ~count:40
    QCheck.(pair small_int (small_list (pair (int_bound 2) (int_bound 30))))
    (fun (seed, raw_ops) ->
      let spec =
        Organization.Scheme_cfg
          { (Scheme.default_config Scheme.One_keytree) with seed = seed + 1 }
      in
      let org = Organization.create spec in
      let touched = Hashtbl.create 16 in
      List.iter
        (fun (k, m) ->
          apply_op org touched (match k with 0 -> `Join m | 1 -> `Depart m | _ -> `Rekey))
        raw_ops;
      let module O = (val org : Organization.S) in
      match Organization.restore spec (O.snapshot ()) with
      | Error e -> QCheck.Test.fail_reportf "restore failed: %s" e
      | Ok org' ->
          let continue ((module X : Organization.S) as org) touched =
            List.map
              (fun m ->
                apply_op org touched (if X.is_member m then `Depart m else `Join m);
                let msg = X.rekey () in
                Hashtbl.reset touched;
                msg_fingerprint msg)
              [ 3; 11; 19; 27 ]
          in
          let touched' = Hashtbl.copy touched in
          continue org touched = continue org' touched')

(* ------------------------------------------------------------------ *)
(* Session-level recovery paths                                        *)

let base_cfg =
  {
    Session.default_config with
    seed = 3;
    n_target = 60;
    ms = 120.0;
    ml = 1800.0;
    tp = 60.0;
    horizon = 600.0;
  }

let test_crash_transparent () =
  let baseline = Session.run base_cfg in
  let r = Session.run ~faults:[ Fault.Crash { interval = 4 } ] base_cfg in
  Alcotest.(check int) "one restore" 1 r.restores;
  Alcotest.(check bool) "verified" true r.verified;
  Alcotest.(check bool) "recovered" true r.recovered;
  Alcotest.(check (list string)) "crash recovery is lossless" baseline.dek_trace r.dek_trace

let test_desync_resyncs () =
  let baseline = Session.run base_cfg in
  let r = Session.run ~faults:[ Fault.Desync { interval = 2; member = 5 } ] base_cfg in
  Alcotest.(check bool) "fault took effect" true (r.faults_injected >= 1);
  Alcotest.(check bool) "verified" true r.verified;
  Alcotest.(check bool) "recovered" true r.recovered;
  if r.rejoins = 0 then begin
    Alcotest.(check bool) "member resynced" true (r.resyncs >= 1);
    (* Resync draws only from the injector stream, so the group's key
       sequence is untouched. *)
    Alcotest.(check (list string)) "DEK trace unchanged" baseline.dek_trace r.dek_trace
  end

let test_rejoin_fallback () =
  (* Total loss on one member for the whole horizon: every resync
     attempt fails, so the member must fall back to evict-and-rejoin
     and the session must still end recovered. *)
  let plan = Result.get_ok (Fault.of_string "loss@60-3000:1.0:17;desync@2:17") in
  let r = Session.run ~faults:plan base_cfg in
  Alcotest.(check bool) "gave up into rejoin" true (r.rejoins >= 1);
  Alcotest.(check bool) "verified" true r.verified;
  Alcotest.(check bool) "recovered" true r.recovered

let test_faulty_run_deterministic () =
  let plan =
    Result.get_ok (Fault.of_string "crash@2;loss@120-240:0.4;desync@3:9;corrupt@4;drop@1:10")
  in
  let r1 = Session.run ~faults:plan base_cfg in
  let r2 = Session.run ~faults:plan base_cfg in
  Alcotest.(check bool) "same seed, same plan, same run" true (r1 = r2)

let test_empty_plan_is_fault_free () =
  let baseline = Session.run base_cfg in
  let r = Session.run ~faults:[] base_cfg in
  Alcotest.(check bool) "bit-identical to fault-free" true (baseline = r)

(* ------------------------------------------------------------------ *)
(* Crash-at-every-interval sweep                                       *)

(* Crash at every rekey interval of a small session (N=60, 10
   intervals): each crashed run restores once from its snapshot and
   write-ahead log, and reproduces the {e exact} fault-free DEK
   sequence — crash recovery is lossless, so the whole trace must
   match, not just a post-recovery suffix. *)
let test_chaos_sweep org_str () =
  let config =
    {
      Session.default_config with
      n_target = 60;
      horizon = 600.0;
      tp = 60.0;
      ms = 120.0;
      ml = 1800.0;
      org = spec_of org_str;
    }
  in
  let baseline = Session.run config in
  Alcotest.(check bool) "baseline verified" true baseline.verified;
  Alcotest.(check bool) "swept at least one interval" true (baseline.intervals > 0);
  for k = 1 to baseline.intervals do
    let r = Session.run ~faults:[ Fault.Crash { interval = k } ] config in
    Alcotest.(check int) (Printf.sprintf "exactly one restore at interval %d" k) 1 r.restores;
    Alcotest.(check bool) (Printf.sprintf "verified with a crash at interval %d" k) true r.verified;
    Alcotest.(check bool) (Printf.sprintf "recovered from a crash at interval %d" k) true r.recovered;
    Alcotest.(check bool)
      (Printf.sprintf "a crash at interval %d converges to the fault-free DEK sequence" k)
      true
      (r.dek_trace = baseline.dek_trace)
  done

let () =
  Alcotest.run "gkm_chaos"
    [
      ( "org snapshot",
        [
          Alcotest.test_case "one-keytree round trip" `Quick (roundtrip_spec "one");
          Alcotest.test_case "TT-scheme round trip" `Quick (roundtrip_spec "tt");
          Alcotest.test_case "QT-scheme round trip" `Quick (roundtrip_spec "qt");
          Alcotest.test_case "PT-scheme round trip" `Quick (roundtrip_spec "pt");
          Alcotest.test_case "loss-tree round trip" `Quick (roundtrip_spec "loss:0.05");
          Alcotest.test_case "random round trip" `Quick (roundtrip_spec "random:2");
          Alcotest.test_case "composed round trip" `Quick (roundtrip_spec "composed");
          Alcotest.test_case "garbage rejected" `Quick test_restore_rejects_garbage;
          Alcotest.test_case "snapshot purity" `Quick test_snapshot_pure;
          QCheck_alcotest.to_alcotest prop_one_keytree_prefix_roundtrip;
        ] );
      ( "session recovery",
        [
          Alcotest.test_case "crash is transparent" `Quick test_crash_transparent;
          Alcotest.test_case "desync resyncs" `Quick test_desync_resyncs;
          Alcotest.test_case "rejoin fallback" `Quick test_rejoin_fallback;
          Alcotest.test_case "faulty runs deterministic" `Quick test_faulty_run_deterministic;
          Alcotest.test_case "empty plan is fault-free" `Quick test_empty_plan_is_fault_free;
        ] );
      ( "crash sweep",
        [
          Alcotest.test_case "one-keytree" `Slow (test_chaos_sweep "one");
          Alcotest.test_case "TT-scheme" `Slow (test_chaos_sweep "tt");
          Alcotest.test_case "loss-homogenized" `Slow (test_chaos_sweep "loss:0.05");
          Alcotest.test_case "random" `Slow (test_chaos_sweep "random:2");
          Alcotest.test_case "composed" `Slow (test_chaos_sweep "composed");
        ] );
    ]
