(* Secure broadcast to a mixed fiber/satellite audience.

   The Section 4 scenario: most receivers sit on clean links (2%
   packet loss) while a minority behind satellite/wireless hops loses
   20% of packets. We organize the key trees by loss band and deliver
   one batched rekeying with the WKA-BKR transport, comparing against
   the single mixed tree — Fig. 6 end to end, with real key wrapping,
   real per-receiver loss processes and real NACK rounds. We then
   verify that every surviving receiver (and no evicted one) can
   decrypt a content frame.

   Run with: dune exec examples/satellite_feed.exe *)

module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Member = Gkm_lkh.Member
module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
open Gkm

let n = 2000
let n_evict = 60
let alpha = 0.25 (* satellite fraction *)
let ph = 0.2
let pl = 0.02

let run_org name selector =
  let rng = Prng.create 7 in
  let channel, satellite, fiber =
    Channel.two_class ~rng ~n ~alpha ~high:(Loss_model.bernoulli ph)
      ~low:(Loss_model.bernoulli pl)
  in
  let spec = Result.get_ok (Organization.spec_of_string ~degree:4 ~seed:11 selector) in
  let module O = (val Organization.create spec) in
  let keys = Hashtbl.create n in
  let register loss m = Hashtbl.replace keys m (O.register ~member:m ~cls:Scheme.Long ~loss) in
  List.iter (register ph) satellite;
  List.iter (register pl) fiber;
  let admission = Option.get (O.rekey ()) in
  (* Instantiate receiver state from the admission message. *)
  let members = Hashtbl.create n in
  List.iter
    (fun (m, leaf) ->
      Hashtbl.replace members m
        (Member.create ~id:m ~leaf_node:leaf ~individual_key:(Hashtbl.find keys m)))
    (O.placements ());
  Hashtbl.iter (fun _ m -> ignore (Member.process m admission)) members;
  (* Evict a batch and deliver the rekey message over the lossy channel. *)
  let victims = List.init n_evict (fun i -> i * (n / n_evict)) in
  List.iter O.enqueue_departure victims;
  let msg = Option.get (O.rekey ()) in
  let job =
    Gkm_transport.Job.of_rekey ~groups:(O.receiver_groups ()) ~channel ~trees:(O.trees ()) msg
  in
  let outcome = Gkm_transport.Wka_bkr.deliver ~channel job in
  (* Receivers process the entries they are interested in (the
     transport already accounted for who got which packet; here every
     survivor replays the full message to update its key state). *)
  Hashtbl.iter (fun _ m -> ignore (Member.process m msg)) members;
  let dek = Option.get (O.group_key ()) in
  let survivors_ok = ref 0 and evicted_blocked = ref 0 in
  Hashtbl.iter
    (fun id m ->
      let has = match Member.group_key m with Some k -> Key.equal k dek | None -> false in
      if O.is_member id then begin
        if has then incr survivors_ok
      end
      else if not has then incr evicted_blocked)
    members;
  (* A bare scheme reports [| S; L |]; show only populated bands. *)
  let bands = List.filter (fun b -> b > 0) (Array.to_list (O.band_sizes ())) in
  Printf.printf "%-18s bands=%s keys sent=%5d packets=%3d rounds=%d\n" name
    (String.concat "+" (List.map string_of_int bands))
    outcome.Gkm_transport.Delivery.keys outcome.packets outcome.rounds;
  Printf.printf "%-18s survivors with DEK: %d/%d, evicted locked out: %d/%d\n\n" "" !survivors_ok
    (n - n_evict) !evicted_blocked n_evict;
  outcome.Gkm_transport.Delivery.keys

let () =
  Printf.printf
    "Satellite feed: %d receivers, %.0f%% at %.0f%%%% loss, evicting %d as one batch\n\n" n
    (100.0 *. alpha) (100.0 *. ph) n_evict;
  let one = run_org "one-keytree" "one" in
  let rand = run_org "two-random" "random:2" in
  let homog = run_org "loss-homogenized" "loss:0.05" in
  Printf.printf "Bandwidth vs one-keytree: two-random %+.1f%%, loss-homogenized %+.1f%%\n"
    (100.0 *. ((float_of_int rand /. float_of_int one) -. 1.0))
    (100.0 *. ((float_of_int homog /. float_of_int one) -. 1.0))
