(** UDP multicast sockets for the REKEY data plane.

    One {!sender} lives on the server's tick domain and puts each
    rekey generation's datagram, its SEALED frames back to back, on
    the group exactly once; each client holds a {!sub} joined to the
    same group and feeds received datagrams to its record sink. TCP
    stays the unicast control channel — this module is transport
    only, with no knowledge of the datagram contents (the client reads
    them with {!Gkm_wire.Frame.decode_datagram}).

    The send path injects no faults: datagram loss, reordering and
    duplication are a receiver's business, where the loss model puts
    them (each client's [Client.config.mcast_fault] shim).

    Group joins are refused by some kernels and containers; callers
    must treat {!subscribe} failure as "UDP unavailable here" and
    degrade visibly (the CI lane probes with {!available} and skips
    with a notice). *)

type group = {
  addr : string;  (** dotted-quad 224/4 group address *)
  port : int;
  iface : string;  (** interface address; [""] = kernel's choice *)
  ttl : int;
  loopback : bool;  (** deliver to subscribers on the sending host *)
}

val group_of_string : string -> (group, string) result
(** ["ADDR:PORT"] over the default group's interface and TTL; [""] is
    the default group itself: 239.255.77.7:7677 on 127.0.0.1, TTL 1,
    loopback on — the link-local lane every loopback deployment
    shares. *)

val group_to_string : group -> string

val ephemeral_group : seed:int -> group
(** A group address and port derived from [seed] and the process id,
    so concurrent test harnesses on one host do not hear each other's
    datagrams. *)

(** {1 Send path} *)

type sender

val create_sender : group -> (sender, string) result

val send : sender -> bytes -> unit
(** [sendto] one datagram to the group. Transient socket errors are
    swallowed — datagram delivery is best-effort by construction and
    the NACK path owns recovery. *)

val close_sender : sender -> unit

(** {1 Receive path} *)

type sub

val subscribe : group -> (sub, string) result
(** Bind the group port (SO_REUSEADDR/SO_REUSEPORT, so many members
    on one host share it), join the group, set non-blocking. *)

val sub_fd : sub -> Unix.file_descr
(** For event-loop registration; read with {!recv}, never directly. *)

val recv : sub -> bytes option
(** One datagram, possibly empty, or [None] when the socket would
    block. The datagram is a fresh copy: subscribers on one domain
    share a single 64 KiB receive buffer. *)

val close_sub : sub -> unit

(** {1 Availability} *)

val available : unit -> bool
(** Live probe, cached: subscribe to an {!ephemeral_group}, multicast
    one datagram to it and wait briefly for the loopback copy. [false]
    means the environment cannot run a UDP lane at all. *)
