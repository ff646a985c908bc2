(* Verbatim copy (observability stripped) of the seed-revision
   Delivery.State + Wka_bkr.deliver, from before the incremental
   loss-class bookkeeping: the oracle for the transport equivalence
   tests in Test_transport. Do not optimize this file. *)

module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
open Gkm_transport

module State = struct
  type t = {
    job : Job.t;
    need : (int, unit) Hashtbl.t array; (* per receiver: entries still needed *)
    remaining : int array; (* per entry: receivers still needing it *)
    mutable total : int;
  }

  let create job =
    let n_recv = Job.n_receivers job in
    let need = Array.init n_recv (fun _ -> Hashtbl.create 8) in
    let remaining = Array.make (Job.n_entries job) 0 in
    let total = ref 0 in
    for r = 0 to n_recv - 1 do
      List.iter
        (fun e ->
          if not (Hashtbl.mem need.(r) e) then begin
            Hashtbl.add need.(r) e ();
            remaining.(e) <- remaining.(e) + 1;
            incr total
          end)
        (Job.interest job r)
    done;
    { job; need; remaining; total = !total }

  let needs t ~r ~e = Hashtbl.mem t.need.(r) e

  let receive t ~r ~e =
    if Hashtbl.mem t.need.(r) e then begin
      Hashtbl.remove t.need.(r) e;
      t.remaining.(e) <- t.remaining.(e) - 1;
      t.total <- t.total - 1
    end

  let remaining_receivers t ~e =
    List.filter (fun r -> needs t ~r ~e) (List.init (Job.n_receivers t.job) Fun.id)

  let pending_entries t =
    let acc = ref [] in
    for e = Array.length t.remaining - 1 downto 0 do
      if t.remaining.(e) > 0 then acc := e :: !acc
    done;
    !acc

  let all_done t = t.total = 0

  let undelivered_receivers t =
    Array.fold_left (fun acc h -> if Hashtbl.length h > 0 then acc + 1 else acc) 0 t.need
end

let deliver
    ?(config = { Wka_bkr.keys_per_packet = 25; max_rounds = 100; weight_cap = 16 }) ~channel job
    =
  let state = State.create job in
  let loss_of r = Loss_model.mean_loss (Channel.receiver channel r).model in
  let rounds = ref 0 and packets = ref 0 and keys = ref 0 in
  let nacks = ref 0 in
  let continue = ref (not (State.all_done state)) in
  while !continue do
    incr rounds;
    let pending = State.pending_entries state in
    (* Weighted key assignment over the receivers that still miss each
       key; breadth-first (level-ascending) packing order. *)
    let weighted =
      List.map
        (fun e ->
          let receivers = State.remaining_receivers state ~e in
          let em = Delivery.Private.expected_replications_of ~loss_of ~receivers in
          let w = max 1 (min config.Wka_bkr.weight_cap (int_of_float (Float.round em))) in
          (e, w))
        pending
    in
    let ordered =
      List.sort
        (fun (e1, _) (e2, _) ->
          let l1 = (Job.entry job e1).level and l2 = (Job.entry job e2).level in
          if l1 <> l2 then compare l1 l2 else compare e1 e2)
        weighted
    in
    let packet_list = Delivery.pack ~capacity:config.Wka_bkr.keys_per_packet ordered in
    List.iter
      (fun packet ->
        incr packets;
        keys := !keys + List.length packet;
        let mask = Array.make (Channel.size channel) false in
        Channel.multicast_into channel mask;
        Array.iteri
          (fun r got -> if got then List.iter (fun e -> State.receive state ~r ~e) packet)
          mask)
      packet_list;
    nacks := !nacks + State.undelivered_receivers state;
    if State.all_done state || !rounds >= config.Wka_bkr.max_rounds then continue := false
  done;
  {
    Delivery.rounds = !rounds;
    packets = !packets;
    keys = !keys;
    bandwidth_keys = !keys;
    nacks = !nacks;
    undelivered = State.undelivered_receivers state;
  }
