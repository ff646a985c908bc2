module Key = Gkm_crypto.Key
module Keytree = Gkm_keytree.Keytree
module Scheme = Gkm.Scheme
open Gkm_lkh

(* The LKH key server is the one-keytree scheme: one balanced tree
   whose root is the DEK. Every registrant is a long-term member (the
   class only steers the two-partition schemes). *)
let one_keytree ?(degree = 4) ~seed () =
  Scheme.create { (Scheme.default_config Scheme.One_keytree) with degree; seed }

let register server m = Scheme.register server ~member:m ~cls:Scheme.Long
let tree server = List.hd (Scheme.trees server)
let members server = Keytree.members (tree server)

let members_under t node =
  let acc = ref [] in
  Keytree.iter_members_under t node (fun m -> acc := m :: !acc);
  List.rev !acc

(* A small client-side harness: keeps a Member.t per live member,
   creates joiners from their registration key, and feeds every rekey
   message to everyone (including evicted members, who should learn
   nothing). *)

module Harness = struct
  type t = {
    server : Scheme.t;
    members : (int, Member.t) Hashtbl.t;
    evicted : (int, Member.t) Hashtbl.t;
    mutable staged : (int * Key.t) list; (* registered, waiting for batch *)
  }

  let create ?(degree = 4) ~seed () =
    {
      server = one_keytree ~degree ~seed ();
      members = Hashtbl.create 32;
      evicted = Hashtbl.create 32;
      staged = [];
    }

  let register t m =
    let key = register t.server m in
    t.staged <- (m, key) :: t.staged

  let depart t m =
    Scheme.enqueue_departure t.server m;
    t.staged <- List.filter (fun (j, _) -> j <> m) t.staged

  let rekey t =
    match Scheme.rekey t.server with
    | None -> None
    | Some msg ->
        (* Instantiate freshly admitted members: the admission response
           carries their leaf node id. *)
        List.iter
          (fun (m, key) ->
            if Scheme.is_member t.server m then begin
              let leaf_node = fst (List.hd (Scheme.member_path t.server m)) in
              Hashtbl.replace t.members m
                (Member.create ~id:m ~leaf_node ~individual_key:key)
            end)
          t.staged;
        t.staged <- [];
        (* Move evicted members' state to the evicted table. *)
        Hashtbl.iter
          (fun m member ->
            if not (Scheme.is_member t.server m) then begin
              Hashtbl.remove t.members m;
              Hashtbl.replace t.evicted m member
            end)
          (Hashtbl.copy t.members);
        (* Everyone on the multicast channel sees the message. *)
        Hashtbl.iter (fun _ member -> ignore (Member.process member msg)) t.members;
        Hashtbl.iter (fun _ member -> ignore (Member.process member msg)) t.evicted;
        Some msg

  let all_members_converged t =
    match Scheme.group_key t.server with
    | None -> Hashtbl.length t.members = 0
    | Some dek ->
        Hashtbl.fold
          (fun _ member acc ->
            acc && match Member.group_key member with Some k -> Key.equal k dek | None -> false)
          t.members true

  let no_evicted_member_has_dek t =
    match Scheme.group_key t.server with
    | None -> true
    | Some dek ->
        Hashtbl.fold
          (fun _ member acc ->
            acc
            && match Member.group_key member with Some k -> not (Key.equal k dek) | None -> true)
          t.evicted true
end

let range a b = List.init (b - a + 1) (fun i -> a + i)

(* ------------------------------------------------------------------ *)

let test_batch_join_bootstrap () =
  let h = Harness.create ~seed:11 () in
  List.iter (Harness.register h) (range 1 9);
  (match Harness.rekey h with None -> Alcotest.fail "expected a rekey message" | Some _ -> ());
  Alcotest.(check int) "group size" 9 (Scheme.size h.server);
  Alcotest.(check bool) "all 9 joiners decrypted the DEK from multicast" true
    (Harness.all_members_converged h)

let test_departure_forward_secrecy () =
  let h = Harness.create ~seed:12 () in
  List.iter (Harness.register h) (range 1 16);
  ignore (Harness.rekey h);
  Harness.depart h 5;
  Harness.depart h 13;
  ignore (Harness.rekey h);
  Alcotest.(check bool) "survivors converged" true (Harness.all_members_converged h);
  Alcotest.(check bool) "evicted members lack DEK" true (Harness.no_evicted_member_has_dek h)

let test_evicted_stays_out_across_epochs () =
  let h = Harness.create ~seed:13 () in
  List.iter (Harness.register h) (range 1 20);
  ignore (Harness.rekey h);
  Harness.depart h 3;
  ignore (Harness.rekey h);
  (* Keep churning; the evicted member keeps listening. *)
  for i = 21 to 25 do
    Harness.register h i;
    Harness.depart h (i - 15);
    ignore (Harness.rekey h)
  done;
  Alcotest.(check bool) "survivors converged" true (Harness.all_members_converged h);
  Alcotest.(check bool) "evicted member never recovers" true (Harness.no_evicted_member_has_dek h)

let test_backward_secrecy () =
  (* A joiner must not learn the previous DEK. *)
  let h = Harness.create ~seed:14 () in
  List.iter (Harness.register h) (range 1 8);
  ignore (Harness.rekey h);
  let old_dek = Option.get (Scheme.group_key h.server) in
  Harness.register h 100;
  ignore (Harness.rekey h);
  let joiner = Hashtbl.find h.members 100 in
  (* The joiner holds the new DEK... *)
  Alcotest.(check bool) "joiner has new DEK" true
    (match Member.group_key joiner with
    | Some k -> Key.equal k (Option.get (Scheme.group_key h.server))
    | None -> false);
  (* ...and none of its stored keys equals the old DEK. *)
  let leaked = ref false in
  for node = 0 to 10_000 do
    match Member.Private.key_of joiner node with
    | Some k when Key.equal k old_dek -> leaked := true
    | _ -> ()
  done;
  Alcotest.(check bool) "old DEK not derivable" false !leaked

let test_interest_counts_match_receivers () =
  let h = Harness.create ~seed:15 () in
  List.iter (Harness.register h) (range 1 32);
  ignore (Harness.rekey h);
  Harness.depart h 7;
  Harness.depart h 20;
  Harness.register h 40;
  (* Snapshot member states BEFORE the rekey message is processed. *)
  let pre_members = Hashtbl.copy h.members in
  let msg =
    match Scheme.rekey h.server with None -> Alcotest.fail "expected msg" | Some m -> m
  in
  (* Each entry's receiver count must equal the members actually under
     the wrapping key's subtree, and instantaneous key knowledge
     (before processing the message) must be a sound under-approximation
     of that interest set: nobody outside the subtree can decrypt. *)
  List.iter
    (fun (e : Rekey_msg.entry) ->
      let under = members_under (tree h.server) e.wrapped_under in
      Alcotest.(check int)
        (Printf.sprintf "entry K%d/K%d receivers" e.target_node e.wrapped_under)
        e.receivers (List.length under);
      Hashtbl.iter
        (fun m member ->
          if
            Scheme.is_member h.server m
            && Member.interested member ~target:e.target_node ~version:e.target_version
                 ~under:e.wrapped_under
          then
            Alcotest.(check bool)
              (Printf.sprintf "member %d interested in K%d/K%d is under the subtree" m
                 e.target_node e.wrapped_under)
              true (List.mem m under))
        pre_members)
    msg.entries;
  (* Deliver so the harness state stays consistent. *)
  Hashtbl.iter (fun _ m -> ignore (Member.process m msg)) h.members

let test_individual_rekeying () =
  (* One rekey per membership event, as in the original LKH. *)
  let server = one_keytree ~seed:16 () in
  let k1 = register server 1 in
  ignore (Scheme.rekey server);
  ignore (register server 2);
  let msg2 = Option.get (Scheme.rekey server) in
  let leaf1 = fst (List.hd (Scheme.member_path server 1)) in
  let m1 = Member.create ~id:1 ~leaf_node:leaf1 ~individual_key:k1 in
  (* Member 1 joined before member 2; it needs its path as of epoch 1,
     then processes the join of member 2. *)
  Member.install_path m1 (Scheme.member_path server 1);
  Member.set_root m1 (Option.get (Keytree.root_id (tree server)));
  ignore (Member.process m1 msg2);
  Alcotest.(check bool) "m1 has DEK" true
    (match Member.group_key m1 with
    | Some k -> Key.equal k (Option.get (Scheme.group_key server))
    | None -> false);
  Scheme.enqueue_departure server 2;
  let msg3 = Option.get (Scheme.rekey server) in
  ignore (Member.process m1 msg3);
  Alcotest.(check bool) "m1 has DEK after eviction of m2" true
    (match Member.group_key m1 with
    | Some k -> Key.equal k (Option.get (Scheme.group_key server))
    | None -> false)

let test_member_resync_after_missed_messages () =
  (* A member that misses rekey messages (e.g. was offline) falls out
     of sync; re-requesting its current path over the secure unicast
     channel restores it — the recovery path real deployments need
     when the reliable transport gives up. *)
  let h = Harness.create ~seed:23 () in
  List.iter (Harness.register h) (range 1 12);
  ignore (Harness.rekey h);
  let offline = Hashtbl.find h.members 6 in
  Hashtbl.remove h.members 6;
  (* Miss several epochs of churn. *)
  for i = 13 to 16 do
    Harness.register h i;
    Harness.depart h (i - 12);
    ignore (Harness.rekey h)
  done;
  let dek = Option.get (Scheme.group_key h.server) in
  Alcotest.(check bool) "out of sync" false
    (match Member.group_key offline with Some k -> Key.equal k dek | None -> false);
  (* Resync: the server unicasts the member's current path. *)
  Member.install_path offline (Scheme.member_path h.server 6);
  Member.set_root offline
    (Option.get (Keytree.root_id (tree h.server)));
  Alcotest.(check bool) "resynced" true
    (match Member.group_key offline with Some k -> Key.equal k dek | None -> false);
  (* And it keeps up with subsequent multicast rekeyings. *)
  Hashtbl.replace h.members 6 offline;
  Harness.depart h 8;
  ignore (Harness.rekey h);
  Alcotest.(check bool) "follows later epochs" true (Harness.all_members_converged h)

let test_server_argument_errors () =
  let server = one_keytree ~seed:17 () in
  ignore (register server 1);
  (match register server 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double register accepted");
  ignore (Scheme.rekey server);
  (match register server 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "registering a member accepted");
  (match Scheme.enqueue_departure server 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "departing a stranger accepted");
  Scheme.enqueue_departure server 1;
  match Scheme.enqueue_departure server 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double departure accepted"

let test_join_cancelled_by_departure () =
  let server = one_keytree ~seed:18 () in
  ignore (register server 1);
  ignore (register server 2);
  Scheme.enqueue_departure server 2;
  ignore (Scheme.rekey server);
  Alcotest.(check bool) "1 admitted" true (Scheme.is_member server 1);
  Alcotest.(check bool) "2 cancelled" false (Scheme.is_member server 2)

let test_cancel_then_rejoin () =
  (* Cancelling an enqueued join must leave no trace: the member can
     re-register in the same batch, gets a *new* individual key, and is
     admitted exactly once with that key. *)
  let server = one_keytree ~seed:27 () in
  ignore (register server 1);
  let k_first = register server 2 in
  Scheme.enqueue_departure server 2;
  let not_pending m =
    match Scheme.enqueue_departure server m with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "2 no longer pending" true (not_pending 2);
  let k_second = register server 2 in
  Alcotest.(check bool) "rejoin key is fresh" false (Key.equal k_first k_second);
  ignore (Scheme.rekey server);
  Alcotest.(check (list int))
    "1 and the rejoined 2 placed once each" [ 1; 2 ]
    (List.sort compare (List.map fst (Scheme.placements server)));
  Alcotest.(check bool) "2 admitted" true (Scheme.is_member server 2);
  Alcotest.(check int) "no duplicate admission" 2 (Scheme.size server);
  Alcotest.(check bool)
    "tree holds the rejoin key" true
    (Key.equal (Keytree.leaf_key (tree server) 2) k_second);
  (* Cancel-then-rejoin-then-cancel: the stale first entry must not
     resurrect the join. *)
  let _k3 = register server 3 in
  Scheme.enqueue_departure server 3;
  ignore (register server 3);
  Scheme.enqueue_departure server 3;
  Alcotest.(check bool) "3 fully cancelled" true (not_pending 3);
  Alcotest.(check bool) "nothing pending" true (Scheme.rekey server = None);
  Alcotest.(check bool) "3 never admitted" false (Scheme.is_member server 3)

let test_depart_rejects_member_in_both_queues () =
  (* The duplicate check must fire before the cancel path: a second
     enqueue for an already-departing member is an error even if the
     member id somehow also sits in the join queue. *)
  let server = one_keytree ~seed:28 () in
  ignore (register server 1);
  ignore (register server 2);
  ignore (Scheme.rekey server);
  Scheme.enqueue_departure server 1;
  match Scheme.enqueue_departure server 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-departure of a departing member accepted"

let test_empty_rekey () =
  let server = one_keytree ~seed:19 () in
  Alcotest.(check bool) "no-op rekey" true (Scheme.rekey server = None)

let test_cost_accounting () =
  let server = one_keytree ~seed:20 () in
  List.iter (fun m -> ignore (register server m)) (range 1 8);
  let msg = Option.get (Scheme.rekey server) in
  Alcotest.(check int) "cumulative = message size" (Rekey_msg.size_keys msg)
    (Scheme.cumulative_keys server);
  Alcotest.(check int) "one rekey" 1 (Scheme.interval server);
  List.iter
    (fun (e : Rekey_msg.entry) ->
      Alcotest.(check int) "every entry is one classical wrap" Key.wrapped_size
        (Bytes.length e.ciphertext))
    msg.entries

let test_last_member_departure () =
  let server = one_keytree ~seed:21 () in
  ignore (register server 1);
  ignore (Scheme.rekey server);
  Scheme.enqueue_departure server 1;
  let msg = Option.get (Scheme.rekey server) in
  Alcotest.(check int) "empty group" 0 (Scheme.size server);
  Alcotest.(check (list int)) "no entries" []
    (List.map (fun (e : Rekey_msg.entry) -> e.target_node) msg.entries)

(* ------------------------------------------------------------------ *)
(* Property: arbitrary churn preserves both security directions.      *)

let churn_gen =
  QCheck.Gen.(
    let* steps = 1 -- 12 in
    let* ops = list_size (return steps) (pair (0 -- 2) (0 -- 5)) in
    let* seed = 0 -- 1000 in
    return (ops, seed))

let prop_churn_secure =
  QCheck.Test.make ~name:"churn: members converge, evicted locked out" ~count:60
    (QCheck.make
       ~print:(fun (ops, seed) ->
         Printf.sprintf "seed=%d ops=[%s]" seed
           (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d/%d" a b) ops)))
       churn_gen)
    (fun (ops, seed) ->
      let h = Harness.create ~seed () in
      let next = ref 0 in
      List.iter (Harness.register h) (range 1000 1006);
      next := 0;
      ignore (Harness.rekey h);
      List.iter
        (fun (kind, count) ->
          (match kind with
          | 0 ->
              (* joins *)
              for _ = 0 to count do
                incr next;
                Harness.register h !next
              done
          | 1 ->
              (* departures of a prefix of current members *)
              let current = members h.server in
              let victims = List.filteri (fun i _ -> i <= count) current in
              (* Keep at least one member around. *)
              let victims =
                if List.length victims >= List.length current then
                  match victims with _ :: tl -> tl | [] -> []
                else victims
              in
              List.iter (Harness.depart h) victims
          | _ ->
              (* mixed *)
              incr next;
              Harness.register h !next;
              (match members h.server with
              | m :: _ :: _ -> Harness.depart h m
              | _ -> ()));
          ignore (Harness.rekey h))
        ops;
      Harness.all_members_converged h && Harness.no_evicted_member_has_dek h)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gkm_lkh"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "batch join bootstrap" `Quick test_batch_join_bootstrap;
          Alcotest.test_case "forward secrecy" `Quick test_departure_forward_secrecy;
          Alcotest.test_case "evicted stays out" `Quick test_evicted_stays_out_across_epochs;
          Alcotest.test_case "backward secrecy" `Quick test_backward_secrecy;
          Alcotest.test_case "interest = receivers" `Quick test_interest_counts_match_receivers;
          Alcotest.test_case "individual rekeying" `Quick test_individual_rekeying;
          Alcotest.test_case "resync after missed messages" `Quick
            test_member_resync_after_missed_messages;
        ] );
      ( "server",
        [
          Alcotest.test_case "argument errors" `Quick test_server_argument_errors;
          Alcotest.test_case "join cancelled by departure" `Quick test_join_cancelled_by_departure;
          Alcotest.test_case "cancel then rejoin" `Quick test_cancel_then_rejoin;
          Alcotest.test_case "double departure with pending join" `Quick
            test_depart_rejects_member_in_both_queues;
          Alcotest.test_case "empty rekey" `Quick test_empty_rekey;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
          Alcotest.test_case "last member departs" `Quick test_last_member_departure;
        ] );
      ("properties", qsuite [ prop_churn_secure ]);
    ]
