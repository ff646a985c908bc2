(** End-to-end discrete simulation drivers that cross-check the
    paper's analytic figures against the executable system: real key
    trees, real key wrapping, synthetic membership churn, and lossy
    multicast delivery. *)

(** {1 Two-partition experiment (Figs. 3-5 cross-check)} *)

type partition_result = {
  kind : Scheme.kind;
  intervals : int;  (** measured intervals (after warm-up) *)
  mean_keys : float;  (** encrypted keys per rekey interval *)
  ci95 : float;  (** 95% confidence half-width of the mean *)
  mean_size : float;  (** average group size over the run *)
  mean_s_size : float;  (** average S-partition population *)
}

val run_partition :
  ?degree:int ->
  ?seed:int ->
  n:int ->
  alpha:float ->
  ms:float ->
  ml:float ->
  tp:float ->
  s_period:int ->
  warmup:int ->
  intervals:int ->
  kind:Scheme.kind ->
  unit ->
  partition_result
(** Drive a {!Scheme} with the two-class workload at steady state for
    [warmup + intervals] rekey intervals and measure the per-interval
    rekeying cost over the last [intervals]. Runs through the packed
    {!Organization} interface; results are bit-identical to driving
    the scheme directly. *)

(** {1 Loss-homogenization experiment (Figs. 6-7 cross-check)} *)

type organization =
  | Org_one  (** one key tree: the bare one-keytree scheme *)
  | Org_random of int  (** k one-keytree bands filled round-robin *)
  | Org_homogenized of float  (** two one-keytree bands split at the threshold *)
  | Org_mispartitioned of { threshold : float; beta : float }
      (** loss-homogenized with a fraction beta of each side misreporting *)
  | Org_composed of { threshold : float; kind : Scheme.kind; s_period : int }
      (** a full two-partition scheme inside each loss band
          ([Organization.Composed_cfg]) — both optimizations stacked *)

type transport =
  | Wka_bkr_transport
  | Multi_send_transport of int  (** replication *)
  | Fec_transport of float  (** proactivity rho *)

type loss_result = {
  mean_keys_sent : float;  (** key copies multicast until full delivery *)
  mean_bandwidth : float;  (** including FEC parity, in key slots *)
  mean_packets : float;
  mean_rounds : float;
  undelivered : int;  (** total receivers left short across trials *)
}

val run_loss :
  ?degree:int ->
  ?seed:int ->
  ?trials:int ->
  ?burstiness:float ->
  n:int ->
  l:int ->
  alpha:float ->
  ph:float ->
  pl:float ->
  organization:organization ->
  transport:transport ->
  unit ->
  loss_result
(** Build an [n]-member group with a two-class loss population, batch
    [l] uniformly chosen departures, run one group rekeying, and
    deliver the rekey message over the lossy channel with the chosen
    transport. Averages over [trials] independent populations
    (default 5). [burstiness] switches every receiver from Bernoulli
    to a Gilbert-Elliott channel with the same mean loss (the A2
    ablation of DESIGN.md). *)
