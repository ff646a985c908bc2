(** Injectable packet-level network emulation for a live socket path.

    {!Loss_model} samples whether a simulated receiver loses a packet;
    this module turns the same models into a fault shim that sits on a
    real send or receive path and additionally reorders and duplicates
    — the two datagram pathologies a Bernoulli/Gilbert-Elliott loss
    draw cannot express. Deterministic under a seed, so conformance
    lanes and the chaos soak replay the exact fault schedule.

    The shim is a small stateful filter: {!push} one packet, get back
    the packets to put on the wire {e now} (possibly none, possibly
    with an older held-back packet appended after the new one — that
    is the reorder). A packet can be held back for at most one
    successor, so delivery stays near-in-order like a real short
    queue, and {!flush} drains the hold at end of stream. *)

type cfg = {
  loss : Loss_model.t option;  (** drop draw per packet, [None] = off *)
  reorder : float;  (** P(hold this packet until the next survivor) *)
  dup : float;  (** P(emit this packet twice) *)
}

val cfg : ?loss:Loss_model.t -> ?reorder:float -> ?dup:float -> unit -> cfg
(** Unspecified faults are off.
    @raise Invalid_argument if a probability is outside [0, 1]. *)

val none : cfg
(** All faults off. *)

val is_none : cfg -> bool
(** No fault can ever fire under this configuration. *)

type 'a t
(** A shim instance carrying model state and the held-back slot.
    ['a] is the packet type (buffers on a send path, decoded records
    on a receive path). *)

val create : seed:int -> cfg -> 'a t

val push : 'a t -> 'a -> 'a list
(** [push t p] applies the fault schedule to [p] and returns what to
    deliver now, in order: [[]] if [p] was dropped or held back;
    [[p]] (or [[p; p]] on a duplication draw) possibly followed by a
    previously held packet — the pair is the visible reorder. *)

val duplicates : 'a t -> int
(** Packets {!push} has emitted twice so far. *)

val flush : 'a t -> 'a list
(** Release the held-back packet, if any (delivered late but in
    order). *)
