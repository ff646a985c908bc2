module Prng = Gkm_crypto.Prng
module Stats = Gkm_sim.Stats
module Membership = Gkm_workload.Membership
module Channel = Gkm_net.Channel
module Loss_model = Gkm_net.Loss_model
module Job = Gkm_transport.Job
module Delivery = Gkm_transport.Delivery

type partition_result = {
  kind : Scheme.kind;
  intervals : int;
  mean_keys : float;
  ci95 : float;
  mean_size : float;
  mean_s_size : float;
}

(* The churn loop: drive a packed organization with the two-class
   workload. Members report no loss (two-partition schemes ignore it). *)
let churn_org ~(org : Organization.packed) ~buckets ~warmup =
  let module O = (val org) in
  let keys = Stats.create () and sizes = Stats.create () in
  let band_stats = ref [||] in
  List.iteri
    (fun i (joins, departs) ->
      List.iter
        (fun (m, cls) ->
          let cls = match cls with Membership.Short -> Scheme.Short | Long -> Scheme.Long in
          ignore (O.register ~member:m ~cls ~loss:0.0))
        joins;
      List.iter
        (fun m ->
          (* Departures of members whose join was cancelled in an
             earlier interval (joined and left within one bucket) have
             nothing to do. *)
          if O.is_member m || List.exists (fun (j, _) -> j = m) joins then
            O.enqueue_departure m)
        departs;
      ignore (O.rekey ());
      if i >= warmup then begin
        Stats.add keys (float_of_int (O.last_cost ()));
        Stats.add sizes (float_of_int (O.size ()));
        let bands = O.band_sizes () in
        if Array.length !band_stats = 0 then
          band_stats := Array.init (Array.length bands) (fun _ -> Stats.create ());
        Array.iteri (fun b n -> Stats.add !band_stats.(b) (float_of_int n)) bands
      end)
    buckets;
  (keys, sizes, Array.map Stats.mean !band_stats)

let run_partition ?(degree = 4) ?(seed = 1) ~n ~alpha ~ms ~ml ~tp ~s_period ~warmup ~intervals
    ~kind () =
  if warmup < 0 || intervals <= 0 then
    invalid_arg "Sim_driver.run_partition: bad interval counts";
  let cfg = Membership.of_params ~n_target:n ~alpha ~ms ~ml ~tp in
  let rng = Prng.create seed in
  let buckets = Membership.intervals cfg ~rng ~n_intervals:(warmup + intervals) in
  let org =
    Organization.create
      (Organization.Scheme_cfg { kind; degree; s_period; seed = seed + 17 })
  in
  let keys, sizes, band_means = churn_org ~org ~buckets ~warmup in
  {
    kind;
    intervals;
    mean_keys = Stats.mean keys;
    ci95 = Stats.ci95_halfwidth keys;
    mean_size = Stats.mean sizes;
    mean_s_size = band_means.(0);
  }

type organization =
  | Org_one
  | Org_random of int
  | Org_homogenized of float
  | Org_mispartitioned of { threshold : float; beta : float }
  | Org_composed of { threshold : float; kind : Scheme.kind; s_period : int }

type transport =
  | Wka_bkr_transport
  | Multi_send_transport of int
  | Fec_transport of float

type loss_result = {
  mean_keys_sent : float;
  mean_bandwidth : float;
  mean_packets : float;
  mean_rounds : float;
  undelivered : int;
}

let run_loss_once ~degree ~seed ~burstiness ~n ~l ~alpha ~ph ~pl ~organization ~transport =
  let rng = Prng.create seed in
  let model p =
    match burstiness with
    | None -> Loss_model.bernoulli p
    | Some b -> Loss_model.bursty ~mean_loss:p ~burstiness:b
  in
  let channel, high, low =
    Channel.two_class ~rng:(Prng.split rng) ~n ~alpha ~high:(model ph) ~low:(model pl)
  in
  let seed = seed + 31 in
  let bands ?(kind = Scheme.One_keytree) ?(s_period = 0) assignment =
    Organization.Composed_cfg { kind; degree; s_period; seed; assignment }
  in
  let spec =
    match organization with
    | Org_one -> Organization.Scheme_cfg { Scheme.kind = One_keytree; degree; s_period = 0; seed }
    | Org_random k -> bands (Random k)
    | Org_homogenized threshold | Org_mispartitioned { threshold; _ } ->
        bands (By_loss [ threshold ])
    | Org_composed { threshold; kind; s_period } -> bands ~kind ~s_period (By_loss [ threshold ])
  in
  let org = Organization.create spec in
  let module O = (val org) in
  (* Decide each member's *reported* loss (misreporting swaps a beta
     fraction across the two classes, keeping tree sizes fixed). *)
  let reported = Hashtbl.create n in
  List.iter (fun m -> Hashtbl.replace reported m ph) high;
  List.iter (fun m -> Hashtbl.replace reported m pl) low;
  (match organization with
  | Org_mispartitioned { beta; _ } ->
      let swap = int_of_float (Float.round (beta *. float_of_int (List.length high))) in
      let swap = min swap (List.length low) in
      List.iteri (fun i m -> if i < swap then Hashtbl.replace reported m pl) high;
      List.iteri (fun i m -> if i < swap then Hashtbl.replace reported m ph) low
  | Org_one | Org_random _ | Org_homogenized _ | Org_composed _ -> ());
  (* A deterministic half/half class mix: organizations that place by
     class (the composed scheme-per-band) get both partitions
     populated; one-keytree bands ignore it, and no RNG is consumed,
     so their draws are untouched. *)
  for m = 0 to n - 1 do
    let cls = if m mod 2 = 0 then Scheme.Short else Scheme.Long in
    ignore (O.register ~member:m ~cls ~loss:(Hashtbl.find reported m))
  done;
  ignore (O.rekey ());
  (* Batch l uniformly chosen departures. *)
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  for i = 0 to min l n - 1 do
    O.enqueue_departure order.(i)
  done;
  match O.rekey () with
  | None -> invalid_arg "Sim_driver.run_loss: empty rekey batch"
  | Some msg ->
      let job =
        Job.of_rekey ~groups:(O.receiver_groups ()) ~channel ~trees:(O.trees ()) msg
      in
      (match transport with
      | Wka_bkr_transport -> Gkm_transport.Wka_bkr.deliver ~channel job
      | Multi_send_transport replication ->
          Gkm_transport.Multi_send.deliver
            ~config:{ Gkm_transport.Multi_send.default with replication }
            ~channel job
      | Fec_transport proactivity ->
          Gkm_transport.Proactive_fec.deliver
            ~config:{ Gkm_transport.Proactive_fec.default with proactivity }
            ~channel job)

let run_loss ?(degree = 4) ?(seed = 1) ?(trials = 5) ?burstiness ~n ~l ~alpha ~ph ~pl
    ~organization ~transport () =
  if trials < 1 then invalid_arg "Sim_driver.run_loss: need at least one trial";
  let keys = Stats.create ()
  and bw = Stats.create ()
  and packets = Stats.create ()
  and rounds = Stats.create () in
  let undelivered = ref 0 in
  for trial = 0 to trials - 1 do
    let outcome =
      run_loss_once ~degree ~seed:(seed + (trial * 7919)) ~burstiness ~n ~l ~alpha ~ph ~pl
        ~organization ~transport
    in
    Stats.add keys (float_of_int outcome.Delivery.keys);
    Stats.add bw (float_of_int outcome.bandwidth_keys);
    Stats.add packets (float_of_int outcome.packets);
    Stats.add rounds (float_of_int outcome.rounds);
    undelivered := !undelivered + outcome.undelivered
  done;
  {
    mean_keys_sent = Stats.mean keys;
    mean_bandwidth = Stats.mean bw;
    mean_packets = Stats.mean packets;
    mean_rounds = Stats.mean rounds;
    undelivered = !undelivered;
  }
