(** Interop cohorts: heterogeneous client populations driven against a
    live server (in-process under [dune runtest], or a spawned
    [gkm serve] from [gkm conform --interop]).

    Each cohort is procedural: it steps the given loop itself until
    its scenario completes or times out, then returns {!verdict}s of
    what the {e client side} observed. Server-side counters are
    asserted by the caller — [Server.stats] for an in-process server,
    the [--stats-file] JSON for a spawned one.

    Two kinds of cohort:
    - well-behaved populations built on the real {!Gkm_netd.Client}
      runtime (joiners, lossy links, reordering and duplicating
      datagram paths);
    - hostile drivers built on a minimal frame-level client that can
      speak the wire protocol wrongly on purpose (NACK flooders,
      evictees that keep transmitting, ticket replayers). *)

type verdict = { name : string; ok : bool; detail : string }

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Well-behaved cohorts} *)

val spawn_clients :
  loop:Gkm_netd.Loop.t ->
  port:int ->
  n:int ->
  ?loss:float ->
  ?drop:Gkm_net.Loss_model.t ->
  ?mcast:Gkm_netd.Mcast.group ->
  ?mcast_fault:Gkm_net.Netem.cfg ->
  ?seed:int ->
  unit ->
  Gkm_netd.Client.t list
(** The clients join in the long-duration class, the
    {!Gkm_netd.Client.config} default. [mcast] subscribes every spawned
    client to the server's UDP data plane; [mcast_fault] is a receive-side {!Gkm_net.Netem} shim on
    that subscription (defaults to no faults). *)

val await_members : loop:Gkm_netd.Loop.t -> timeout:float -> name:string -> Gkm_netd.Client.t list -> verdict
(** All clients reach the Member phase. *)

val await_convergence :
  loop:Gkm_netd.Loop.t -> timeout:float -> ?min_rekey:int -> name:string -> Gkm_netd.Client.t list -> verdict
(** DEK convergence: waits until some rekey number [>= min_rekey] is
    present in {e every} client's trace, then checks all clients
    report the same DEK fingerprint at the latest such rekey. *)

val converge_with_churn :
  loop:Gkm_netd.Loop.t ->
  port:int ->
  timeout:float ->
  ?min_rekey:int ->
  ?seed:int ->
  name:string ->
  Gkm_netd.Client.t list ->
  verdict
(** {!await_convergence}, but interleaved with single-client
    join/evict churn cycles. Used when the rekey data plane can lose
    datagrams: a generation lost off the tail of a quiet period has no
    successor to reveal the gap. The server's quiet-tick heartbeat
    re-multicasts the latest generation at power-of-two backoff, but
    under heavy injected loss the repeats themselves can be dropped —
    churning keeps fresh generations flowing so stragglers NACK their
    way back within the verdict's deadline. *)

val reorder_dup :
  loop:Gkm_netd.Loop.t ->
  port:int ->
  ?mcast:Gkm_netd.Mcast.group ->
  ?seed:int ->
  timeout:float ->
  unit ->
  verdict
(** Four members whose datagram receive path reorders (p=0.35) and
    duplicates (p=0.6) via a {!Gkm_net.Netem} shim, plus a couple of
    churners to keep generations flowing. Passes when the cohort
    converges with every member hearing the group, duplicates absorbed
    by the replay windows, and zero resyncs spent (NACKs are allowed —
    a reordered future-epoch datagram is a gap until its predecessor
    lands). Without [mcast] it degrades to a shimless TCP baseline of
    the same shape. *)

val version_refused : loop:Gkm_netd.Loop.t -> port:int -> timeout:float -> verdict
(** Speakers of another wire version — a JOIN whose frame header says
    the version before {!Gkm_wire.Msg.version}, and one that says the
    version after: the server must refuse each with ERR err_version,
    and then close the connection. *)

(** {1 Hostile cohorts} *)

val nack_flood : loop:Gkm_netd.Loop.t -> port:int -> budget:int -> timeout:float -> verdict
(** Join properly, then flood NACKs for a rekey that never existed.
    Expects: recovery RESYNCs bounded by [budget] (the server's
    [resync_budget]), then a hard err_protocol and the connection
    dropped. *)

val evictee_lockout : loop:Gkm_netd.Loop.t -> port:int -> timeout:float -> verdict
(** Join, capture the ticket, LEAVE — then keep transmitting:
    REJOIN with the dead ticket (expects err_evicted) and an
    authenticated RESYNC_REQ (expects err_auth). *)

val ticket_replay : loop:Gkm_netd.Loop.t -> port:int -> timeout:float -> verdict
(** Capture a ticket, replay it from two fresh connections (each
    re-bind must succeed and kill the previous binding — tickets are
    bearer tokens), then present a corrupted ticket (expects a soft
    err_ticket with the connection surviving) and join fresh on that
    same socket (expects a brand-new member id). *)

module Private : sig
  (** Minimal frame-level client: a non-blocking socket, the streaming
      decoder, and a log of everything received. No protocol state
      machine — the cohort script is the state machine. The hostile
      drivers above are built on it; tests drive it directly. *)
  module Raw : sig
    type t

    val connect : loop:Gkm_netd.Loop.t -> port:int -> t
    (** Loopback connect. *)

    val send : t -> Gkm_wire.Msg.t -> unit
    val close : t -> unit

    val join : t -> timeout:float -> (int * int * Gkm_crypto.Key.t * bytes) option
    (** Send JOIN and await the admitting RESYNC (spans an admission
        tick); returns the member id, the epoch, the individual key (the
        path head) and the ticket the reply carries (issued at that
        epoch). *)

    val await : t -> timeout:float -> (Gkm_wire.Msg.t -> 'a option) -> 'a option
    (** Run the loop until [pick] takes a received message, oldest
        first; [None] on timeout or once the connection closed. *)
  end
end
