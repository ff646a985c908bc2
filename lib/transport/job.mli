(** A delivery job: the encrypted keys of one rekey message plus each
    receiver's interest set, resolved against the channel population.

    The interest of a receiver is the set of entries whose wrapping
    key lies on its key-tree path — the sparseness property the rekey
    transports exploit. Receivers outside the trees (or with no
    matching entries) simply have empty interest. *)

type t

val of_rekey :
  ?groups:(int * int list) list ->
  channel:Gkm_net.Channel.t ->
  trees:Gkm_keytree.Keytree.t list ->
  Gkm_lkh.Rekey_msg.t ->
  t
(** Resolve interest from the key trees: receiver [r] needs entry [e]
    iff [e.wrapped_under] is a node of one of the [trees] with [r]
    beneath it, or [e.wrapped_under] is [r]'s own synthetic id (equal
    to its member id) for queue-held members. Channel members that are
    in no tree get only their synthetic-id entries.

    [groups] (default empty) declares additional synthetic KEK nodes
    the trees cannot resolve: [(node, members)] says every listed
    member holds the key bound to synthetic node id [node]. A composed
    organization uses this to route entries wrapped under its per-band
    DEKs (see [Gkm.Organization.receiver_groups]). *)

val n_entries : t -> int
val n_receivers : t -> int
val entry : t -> int -> Gkm_lkh.Rekey_msg.entry
val interest : t -> int -> int list
(** Entry indexes receiver [i] needs. *)

module Private : sig
  (** A job with hand-written interest sets, for transport tests that
      need shapes no key tree produces. *)

  val create :
    channel:Gkm_net.Channel.t ->
    entries:Gkm_lkh.Rekey_msg.entry array ->
    interest:int list array ->
    t
  (** Raw constructor: [interest.(i)] lists entry indexes receiver [i]
      (dense channel index) needs.
      @raise Invalid_argument on length mismatch or out-of-range entry
      indexes. *)
end
