module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics

let m_deliveries = Metrics.Counter.v "wka_bkr.deliveries"
let m_rounds = Metrics.Counter.v "wka_bkr.rounds"
let m_packets = Metrics.Counter.v "wka_bkr.packets"
let m_retransmitted = Metrics.Counter.v "wka_bkr.packets_retransmitted"
let m_keys_sent = Metrics.Counter.v "wka_bkr.keys_sent"
let m_nacks = Metrics.Counter.v "wka_bkr.nacks"
let m_rounds_hist = Metrics.Histogram.v "wka_bkr.rounds_per_delivery"
let m_duplication = Metrics.Histogram.v "wka_bkr.duplication_factor"

type config = { keys_per_packet : int; max_rounds : int; weight_cap : int }

let default = { keys_per_packet = 25; max_rounds = 100; weight_cap = 16 }

let validate cfg =
  if cfg.keys_per_packet < 1 then invalid_arg "Wka_bkr: keys_per_packet must be >= 1";
  if cfg.max_rounds < 1 then invalid_arg "Wka_bkr: max_rounds must be >= 1";
  if cfg.weight_cap < 1 then invalid_arg "Wka_bkr: weight_cap must be >= 1"

let deliver ?(config = default) ~channel job =
  validate config;
  let loss_of r = Loss_model.mean_loss (Channel.receiver channel r).model in
  let state = Delivery.State.create ~loss_of job in
  (* Breadth-first (level-ascending, then entry-index) packing order is
     a property of the job, not of the round: sort once and filter
     delivered entries out each round instead of re-sorting. *)
  let order = Array.init (Job.n_entries job) (fun e -> e) in
  Array.sort
    (fun e1 e2 ->
      let l1 = (Job.entry job e1).level and l2 = (Job.entry job e2).level in
      if l1 <> l2 then compare l1 l2 else compare e1 e2)
    order;
  let rounds = ref 0 and packets = ref 0 and keys = ref 0 in
  let nacks = ref 0 and round1_packets = ref 0 in
  let mask = Array.make (Channel.size channel) false in
  let continue = ref (not (Delivery.State.all_done state)) in
  while !continue do
    incr rounds;
    (* Weighted key assignment over the receivers that still miss each
       key, read off the incrementally maintained loss-class counts. *)
    let ordered =
      Array.fold_right
        (fun e acc ->
          if Delivery.State.remaining state ~e = 0 then acc
          else begin
            (* Any E[M] from [weight_cap + 0.5] up rounds to the cap. *)
            let em =
              Delivery.State.expected_replications state ~e
                ~bound:(float_of_int config.weight_cap +. 0.5)
            in
            let w = max 1 (min config.weight_cap (int_of_float (Float.round em))) in
            (e, w) :: acc
          end)
        order []
    in
    let packet_list = Delivery.pack ~capacity:config.keys_per_packet ordered in
    List.iter
      (fun packet ->
        incr packets;
        keys := !keys + List.length packet;
        Channel.multicast_into channel mask;
        Array.iteri
          (fun r got ->
            if got then List.iter (fun e -> Delivery.State.receive state ~r ~e) packet)
          mask)
      packet_list;
    if !rounds = 1 then round1_packets := !packets;
    nacks := !nacks + Delivery.State.undelivered_receivers state;
    if Delivery.State.all_done state || !rounds >= config.max_rounds then continue := false
  done;
  if Obs.enabled () then begin
    Metrics.Counter.incr m_deliveries;
    Metrics.Counter.add m_rounds !rounds;
    Metrics.Counter.add m_packets !packets;
    Metrics.Counter.add m_retransmitted (!packets - !round1_packets);
    Metrics.Counter.add m_keys_sent !keys;
    Metrics.Counter.add m_nacks !nacks;
    Metrics.Histogram.observe m_rounds_hist (float_of_int !rounds);
    if Job.n_entries job > 0 then
      Metrics.Histogram.observe m_duplication
        (float_of_int !keys /. float_of_int (Job.n_entries job))
  end;
  {
    Delivery.rounds = !rounds;
    packets = !packets;
    keys = !keys;
    bandwidth_keys = !keys;
    nacks = !nacks;
    undelivered = Delivery.State.undelivered_receivers state;
  }
