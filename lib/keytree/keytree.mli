(** The logical key tree (LKH) maintained by a group key server.

    A d-ary tree whose leaves are group members. Every node carries a
    key: the root key is the group data-encryption key (DEK), interior
    keys are auxiliary key-encryption keys, and each leaf key is the
    individual key shared between one member and the key server. A
    member owns exactly the keys on the path from its leaf to the root
    [WGL98, WHA98].

    This module maintains the tree structure and key material, and
    computes group-oriented *batch* rekeying [YLZL01]: given a set of
    departures and joins processed together, it refreshes every key
    known to a departed member or on a joined member's path, and
    returns, for every refreshed key, the list of wrappings (one per
    child) that the rekey transport must deliver. The number of
    wrappings is exactly the paper's rekeying-cost metric ("number of
    encrypted keys"). *)

type t

type member_id = int

type wrap = {
  under_node : int;  (** node id of the child key used to encrypt *)
  under_key : Gkm_crypto.Key.t;  (** that child's current key *)
  under_cipher : Gkm_crypto.Key.cipher Lazy.t;
      (** expanded schedule of [under_key]; forcing it expands at most
          once per key refresh (the schedule is cached on the tree
          node), so a KEK that survives many epochs is expanded once,
          not once per wrap — and a caller that never encrypts pays
          nothing *)
  receivers : int;  (** members beneath that child = members needing this wrap *)
}
(** One encryption of an updated key under one of its children. *)

type update = {
  node_id : int;
  level : int;  (** depth of the updated node; the root is level 0 *)
  key : Gkm_crypto.Key.t;  (** the fresh key *)
  version : int;  (** tree epoch in which the key was refreshed *)
  wraps : wrap list;
}
(** One refreshed key together with all its wrappings. *)

val create : ?id_base:int -> degree:int -> Gkm_crypto.Prng.t -> t
(** [create ?id_base ~degree rng] is an empty tree. Fresh keys are
    drawn from [rng]. Node ids are allocated from [id_base] (default 0)
    upward — give each tree of a multi-tree scheme a disjoint id range
    so rekey-message entries never collide.
    @raise Invalid_argument if [degree < 2]. *)

val size : t -> int
(** Number of members (leaves). *)

val height : t -> int
(** Length of the longest root-to-leaf path in edges; 0 for an empty
    or single-member tree. *)

val members : t -> member_id list

val mem : t -> member_id -> bool

val root_id : t -> int option
(** Node id of the root (the group key), if the tree is non-empty. *)

val group_key : t -> Gkm_crypto.Key.t option
(** The current DEK. *)

val leaf_key : t -> member_id -> Gkm_crypto.Key.t
(** The member's individual key. @raise Not_found if absent. *)

val path : t -> member_id -> (int * Gkm_crypto.Key.t) list
(** [path t m] is the keys owned by [m], leaf first, root last.
    @raise Not_found if [m] is not a member. *)

val node_exists : t -> int -> bool

val iter_members_under : t -> int -> (member_id -> unit) -> unit
(** [iter_members_under t node f] applies [f] to each member in the
    subtree rooted at [node], in depth-first order, allocating nothing.
    @raise Not_found on unknown id. *)

val batch_update :
  t ->
  departed:member_id list ->
  joined:(member_id * Gkm_crypto.Key.t) list ->
  update list
(** [batch_update t ~departed ~joined] removes the departed members,
    inserts the joined members (with their supplied individual keys),
    refreshes every compromised or newly shared key, and returns the
    updates deepest-first (so that a member processing them in order
    always already holds the child key needed for the next wrap).

    Duplicate ids within a batch, departures of non-members, and joins
    of existing members raise [Invalid_argument]. An empty batch
    returns []. *)

val snapshot : t -> bytes
(** Serialize the full tree (structure, key material, versions,
    epoch, id allocator, PRNG state) in the v2 layout. The blob
    contains raw key material — callers persisting it must seal it
    first (for example with {!Gkm_crypto.Aead}). *)

val restore : bytes -> (t, string) result
(** Rebuild a tree from {!snapshot} output; any other layout version
    is an [Error]. The restored
    tree continues the original's PRNG stream, so subsequent
    operations are bit-identical to the source server's. Validated
    with {!Private.check}, and every cached key schedule is dropped
    before the tree is returned, so a rebuilt tree can never wrap
    under a stale pre-crash schedule. *)

val pp : Format.formatter -> t -> unit
(** Render the tree shape (small trees only; used by examples). *)

module Private : sig
  val check : t -> (unit, string) result
  (** Structural invariant checker (sizes consistent, parent/child links
      coherent, member index exact, no undersized interior nodes): the
      oracle of the property tests. *)
end
