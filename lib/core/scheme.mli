(** The two-partition group rekeying schemes of Section 3, as an
    executable key server.

    A scheme manages group membership across one or two partitions
    under a common group key (DEK) and performs periodic batched
    rekeying. Four constructions share the interface:

    - {b One_keytree} — the baseline: a single balanced LKH tree whose
      root is the DEK.
    - {b QT} — short-term members wait in a linear queue holding only
      the DEK and their individual key; survivors of the S-period
      migrate into the long-term LKH tree.
    - {b TT} — both partitions are LKH trees.
    - {b PT} — the oracle: members are placed by their true class at
      join time, no migration.

    Every call to {!rekey} advances one rekey interval [Tp]: it admits
    pending joins, evicts pending departures, migrates S-partition
    members whose age reached the S-period, refreshes exactly the
    compromised keys, and emits one rekey message. The message's
    entry count is the paper's bandwidth metric. *)

type kind = One_keytree | Qt | Tt | Pt

val kind_name : kind -> string
val all_kinds : kind list

type member_class = Short | Long

type config = {
  kind : kind;
  degree : int;
  s_period : int;  (** K: intervals a member stays in the S-partition *)
  seed : int;
}

val default_config : kind -> config
(** degree 4, K = 10, seed 0. *)

type t

val create :
  ?s_base:int ->
  ?l_base:int ->
  ?dek_id:int ->
  config ->
  t
(** [create cfg] is a fresh scheme. [s_base] and [l_base] (defaults 0
    and 10^9) are the node-id allocation bases of the S and L trees,
    and [dek_id] (default {!dek_node}) the synthetic node id that
    carries the DEK when the scheme spans several trees — override all
    three with disjoint ranges to run several schemes side by side
    under one composed organization (see [Organization.Composed_cfg]).
    @raise Invalid_argument on a bad degree, a negative S-period, or a
    non-negative [dek_id]. *)

val config : t -> config
(** The creation-time configuration; the live S-period may have been
    retuned since (see {!s_period}). *)

val s_period : t -> int
(** The S-period currently in force. *)

val set_s_period : t -> int -> unit
(** Retune the S-period; applies to migration decisions from the next
    {!rekey} on (the adaptive tuning of Section 3.4).
    @raise Invalid_argument if negative. *)

val interval : t -> int
(** Rekey intervals processed so far. *)

val size : t -> int
(** Current members, including queue residents, excluding pending
    joins. *)

val is_member : t -> int -> bool

val s_size : t -> int
val l_size : t -> int

val register : t -> member:int -> cls:member_class -> Gkm_crypto.Key.t
(** Enqueue a join for the next interval; returns the member's
    individual key (the out-of-band bootstrap secret). [cls] is the
    ground-truth class — only the PT oracle uses it for placement.
    @raise Invalid_argument if already a member or pending. *)

val enqueue_departure : t -> int -> unit
(** Enqueue a departure; departing a pending joiner cancels the join.
    @raise Invalid_argument if unknown. *)

val rekey : t -> Gkm_lkh.Rekey_msg.t option
(** Advance one interval. [None] only when nothing at all changed (no
    joins, departures, or due migrations). *)

val group_key : t -> Gkm_crypto.Key.t option
(** The current DEK. *)

val root_node : t -> int option
(** The node id currently carrying the DEK: the scheme's [dek_id]
    while a synthetic DEK is hoisted above the trees, else the root of
    the single live tree; [None] when the group is empty. *)

val trees : t -> Gkm_keytree.Keytree.t list
(** The live key trees (for transport interest resolution). *)

val placements : t -> (int * int) list
(** [(member, leaf node id)] for every member placed into a tree by
    the last {!rekey} — the admission/migration notification a real
    server unicasts. A queue admission's leaf id is the synthetic
    [-(member + 2)]. *)

val cumulative_keys : t -> int
(** Total encrypted keys across all rekey messages. *)

val last_cost : t -> int
(** Encrypted keys in the last rekey message (0 if none). *)

val dek_node : int
(** Synthetic node id carrying the DEK when the scheme spans several
    trees. *)

val member_path : t -> int -> (int * Gkm_crypto.Key.t) list
(** The catch-up unicast for one member: every (node id, key) the
    member must hold to decrypt group traffic, leaf first, the node
    carrying the DEK last. Queue members get their queue key plus the
    hoisted DEK.
    @raise Not_found if not a current member. *)

val snapshot : t -> bytes
(** Serialize the complete scheme state — trees, queue/migration
    bookkeeping, pending churn, RNG position — for crash recovery.
    Pure: no RNG draws, and calling it does not perturb the live
    instance. Contains raw key material. *)

val restore : bytes -> (t, string) result
(** Rebuild a scheme from {!snapshot} output. The restored instance
    draws the same key stream as the original would have, so replaying
    the same churn yields the same DEK sequence. *)
