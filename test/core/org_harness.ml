(* A member-side harness generic over any packed organization: replays
   every rekey message through real member state machines and checks
   convergence of current members and lockout of evicted ones. *)

open Gkm
module Key = Gkm_crypto.Key
module Member = Gkm_lkh.Member

type t = {
  org : Organization.packed;
  members : (int, Member.t) Hashtbl.t;
  evicted : (int, Member.t) Hashtbl.t;
  keys : (int, Key.t) Hashtbl.t;
}

let create spec =
  {
    org = Organization.create spec;
    members = Hashtbl.create 64;
    evicted = Hashtbl.create 64;
    keys = Hashtbl.create 64;
  }

let register t m ~cls ~loss =
  let module O = (val t.org) in
  Hashtbl.replace t.keys m (O.register ~member:m ~cls ~loss)

let depart t m =
  let module O = (val t.org) in
  O.enqueue_departure m

let rekey t =
  let module O = (val t.org) in
  match O.rekey () with
  | None -> None
  | Some msg ->
      List.iter
        (fun (m, leaf) ->
          let key = Hashtbl.find t.keys m in
          match Hashtbl.find_opt t.members m with
          | Some member -> Member.install_path member [ (leaf, key) ]
          | None ->
              Hashtbl.replace t.members m
                (Member.create ~id:m ~leaf_node:leaf ~individual_key:key))
        (O.placements ());
      Hashtbl.iter
        (fun m member ->
          if not (O.is_member m) then begin
            Hashtbl.remove t.members m;
            Hashtbl.replace t.evicted m member
          end)
        (Hashtbl.copy t.members);
      Hashtbl.iter (fun _ member -> ignore (Member.process member msg)) t.members;
      Hashtbl.iter (fun _ member -> ignore (Member.process member msg)) t.evicted;
      Some msg

let converged t =
  let module O = (val t.org) in
  match O.group_key () with
  | None -> Hashtbl.length t.members = 0
  | Some dek ->
      Hashtbl.fold
        (fun _ member acc ->
          acc
          && match Member.group_key member with Some k -> Key.equal k dek | None -> false)
        t.members true

let locked_out t =
  let module O = (val t.org) in
  match O.group_key () with
  | None -> true
  | Some dek ->
      Hashtbl.fold
        (fun _ member acc ->
          acc
          &&
          match Member.group_key member with
          | Some k -> not (Key.equal k dek)
          | None -> true)
        t.evicted true

let check t label =
  Alcotest.(check bool) (label ^ ": members converged") true (converged t);
  Alcotest.(check bool) (label ^ ": evicted locked out") true (locked_out t)
