(** Scripted multi-process interop testing (the miTLS-style lane):
    spawn a real [gkm serve] as a child process, drive heterogeneous
    {!Cohort}s against it over real sockets, then collect the server's
    [--stats-file] JSON and assert the server-side counters.

    Each case runs one server configuration; {!sweep} crosses the
    organization kinds with the [--domains] fan-out counts, which is
    exactly the matrix where the multi-lane server and the
    single-domain server must be observably identical to every
    client. *)

type transport =
  | Tcp
  | Udp of { loss : float; reorder : float; dup : float }
      (** spawn with [--transport udp:ADDR:PORT] on a per-case
          ephemeral group; each joiner's receive path loses
          (Bernoulli [loss]), reorders and duplicates datagrams at the
          given rates through its [mcast_fault] shim *)

type server = {
  exe : string;  (** the gkm binary (usually [Sys.executable_name]) *)
  org : string;  (** [--org] selector, e.g. ["tt"] or ["composed"] *)
  domains : int;
  tp : float;  (** rekey interval, seconds *)
  resync_budget : int;
  seed : int;
  transport : transport;
}

type case_result = {
  label : string;
  verdicts : Cohort.verdict list;  (** client-side + server-side checks *)
  stats : (string * int) list;  (** parsed [--stats-file] counters *)
  ok : bool;
}

val sweep :
  ?scratch:string ->
  ?domains_list:int list ->
  ?orgs:string list ->
  exe:string ->
  seed:int ->
  unit ->
  case_result list
(** The acceptance matrix: default [orgs = ["tt"; "composed"]] crossed
    with [domains_list = [1; 2; 4]] over tcp, then the first org's
    domains matrix again over the udp multicast data plane, with 1%
    Bernoulli loss, reordering and duplication injected on each
    joiner's datagram receive path. Udp cases probe multicast
    availability and degrade to a visible ["udp-skip"] verdict (still
    [ok]) where the kernel refuses group joins. *)

val pp_case : Format.formatter -> case_result -> unit
