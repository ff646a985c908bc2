(** One-way function trees (OFT) [BM00] — the alternative key-tree
    scheme the paper names alongside LKH ("the basic ideas behind our
    approaches are also applicable for these group key management
    protocols").

    A binary tree where every interior secret is *derived* from its
    children: [x_v = H(g(x_left) xor g(x_right))] with [g] a one-way
    blinding function. A member holds its own leaf secret plus the
    blinded secrets of the siblings along its path, from which it
    computes every ancestor secret including the root (the DEK).
    Rekeying therefore multicasts about [log2 N] encrypted *blinded*
    values per membership change — half of binary LKH's [2 log2 N]
    encrypted keys.

    The server tracks the exact view (leaf secret + blinded values +
    path shape) it has delivered to each member; {!compute_root} is
    the pure member-side computation over such a view, which lets the
    tests state forward/backward secrecy directly: a frozen evicted
    view must not compute the current root. *)

type t

val create : ?seed:int -> unit -> t

val size : t -> int
val members : t -> int list

val join : t -> int -> unit
(** Admit a member (individual rekeying).
    @raise Invalid_argument if already a member. *)

val leave : t -> int -> unit
(** Evict a member: the sibling subtree is promoted, one of its leaves
    receives a fresh secret, and the changed blinded values propagate
    to the root. @raise Invalid_argument if not a member. *)

val batch : t -> departed:int list -> joined:int list -> unit
(** Batched rekeying [SKJ00, YLZL01] for OFT: all departures and joins
    are processed together and each changed blinded value is
    multicast exactly once, so overlapping paths share their upper
    levels just as batched LKH shares refreshed keys. Cost counters
    report the whole batch as one operation.
    @raise Invalid_argument on duplicates, departures of non-members,
    or joins of existing members. *)

val root_secret : t -> bytes option
(** The current group secret (DEK); [None] on an empty group. *)

val last_broadcast_cost : t -> int
(** Encrypted blinded values multicast by the last operation. *)

val last_unicast_cost : t -> int
(** Values delivered point-to-point by the last operation (joiner
    bootstrap, fresh sibling secret). *)

type view
(** What one member holds: its leaf secret, its path shape and the
    sibling blinded values. *)

val view : t -> int -> view
(** Copy of a live member's current view. @raise Not_found. *)

val evicted_view : t -> int -> view option
(** The view a departed member held at eviction time (frozen). *)

val compute_root : view -> bytes option
(** Member-side derivation of the root secret from a view alone;
    [None] if the view is missing a needed blinded value. *)

val check : t -> (unit, string) result
(** Invariants: interior secrets equal the hash of their children's
    blinds, sizes are consistent, and every live member's view
    computes the current root. *)
