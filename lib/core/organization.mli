(** One pluggable group organization.

    The paper implements two unrelated optimizations: the
    two-partition schemes of Section 3 ({!Scheme}) and the
    loss-homogenized multi-tree of Section 4. This module runs both —
    and any future member-placement policy — behind a single
    first-class-module signature, so the full executable stack
    ({!Session}, {!Sim_driver}, the CLI, the bench harness) is
    polymorphic in the organization: crypto, WKA-BKR/FEC transport,
    lossy channels and member-side verification all run unchanged over
    any packed [(module S)].

    There are two organizations. A [Scheme_cfg] is one bare
    two-partition scheme. A [Composed_cfg] places each member in one of
    several bands and runs one scheme per band, every band's DEK under
    one composed group DEK. With one-keytree bands placed by loss it is
    Section 4's loss-homogenized organization; placed round-robin, the
    k-random-trees control of Fig. 6; with a two-partition scheme per
    band, both optimizations stacked end to end. *)

(** The organization interface. A packed module is one stateful
    instance (create it with {!create}); all operations act on that
    instance's hidden state. *)
module type S = sig
  val register :
    member:int -> cls:Scheme.member_class -> loss:float -> Gkm_crypto.Key.t
  (** Enqueue a join for the next interval and return the member's
      individual key. Every organization receives both placement
      signals and uses what its policy needs: the ground-truth duration
      class ([cls] — PT and composed schemes) and the reported loss
      rate ([loss] — loss-banded organizations).
      @raise Invalid_argument if already a member or pending. *)

  val enqueue_departure : int -> unit
  (** Enqueue a departure; departing a pending joiner cancels the
      join. @raise Invalid_argument if unknown. *)

  val rekey : unit -> Gkm_lkh.Rekey_msg.t option
  (** Advance one rekey interval. [None] when nothing changed. *)

  val group_key : unit -> Gkm_crypto.Key.t option
  (** The current group DEK. *)

  val trees : unit -> Gkm_keytree.Keytree.t list
  (** Live key trees, for transport interest resolution. *)

  val receiver_groups : unit -> (int * int list) list
  (** Synthetic KEK nodes the trees cannot resolve, as
      [(node id, holders)] — e.g. a composed organization's per-band
      DEK nodes. Feed to [Gkm_transport.Job.of_rekey ~groups]. Empty
      for single-level organizations. *)

  val placements : unit -> (int * int) list
  (** [(member, leaf node id)] placement/migration notifications from
      the last {!rekey}. *)

  val is_member : int -> bool

  val size : unit -> int
  (** Current members, excluding pending joins. *)

  val band_sizes : unit -> int array
  (** Per-partition populations. Two-partition schemes report
      [| S; L |] (the one-keytree baseline [| 0; N |]); loss
      organizations report one cell per band. *)

  val interval : unit -> int
  val last_cost : unit -> int
  val cumulative_keys : unit -> int

  val member_path : int -> (int * Gkm_crypto.Key.t) list
  (** Catch-up unicast for one member: every (node id, key) it must
      hold, leaf first, the node carrying the group DEK last — what
      the server sends to resynchronize a member that lost state.
      @raise Not_found if not a current member. *)

  val snapshot : unit -> bytes
  (** Serialize the complete organization state (trees, pending churn,
      RNG position) for crash recovery. Pure — no RNG draws — so
      taking a snapshot never perturbs the key sequence. Contains raw
      key material; seal before persisting outside the simulator. *)
end

type packed = (module S)

(** {1 Specifications}

    A [spec] is the serializable description of an organization —
    what configuration records, CLI flags and bench tables carry. *)

type assignment =
  | By_loss of float list
      (** Ascending loss thresholds; [length + 1] bands. A member
          reporting loss [p] joins the first band whose threshold is
          [>= p], else the last band. *)
  | Random of int
      (** [k] bands filled round-robin at {!S.register}, regardless of
          loss. A join that is later cancelled still used its turn. *)

type composed_config = {
  kind : Scheme.kind;  (** the scheme run inside each band *)
  degree : int;
  s_period : int;
  seed : int;
  assignment : assignment;  (** how members are placed into bands *)
}

type spec =
  | Scheme_cfg of Scheme.config  (** Section 3: one of the four two-partition schemes *)
  | Composed_cfg of composed_config
      (** one scheme per band, stacked under one composed DEK. With
          [One_keytree] bands this is Section 4's loss-homogenized (or
          random) multi-tree. *)

val spec_name : spec -> string
(** Short display name: ["TT-scheme"] for a bare scheme;
    ["loss-homogenized(0.05)"] and ["random(2)"] for one-keytree bands
    placed by loss or round-robin; ["composed(TT-scheme@0.05)"] for
    any other band scheme. *)

val create : spec -> packed
(** Instantiate a fresh organization. A [Scheme_cfg] organization
    delegates directly: its rekey messages, placements and key
    material are bit-identical to calling {!Scheme} itself. Every
    organization counts one [rekey.count] per group rekey; a
    [Composed_cfg] one also sets one [rekey.band_size.<b>] population
    gauge per band.
    @raise Invalid_argument on an invalid configuration (bad degree,
    empty or unsorted thresholds, fewer than one random band, negative
    S-period). *)

val restore : spec -> bytes -> (packed, string) result
(** Rebuild an organization from a [snapshot ()] blob. The [spec]
    only selects the decoder family (its constructor must match the
    organization that produced the blob); every configuration detail —
    seeds, the band assignment, RNG positions — comes from the blob, so the
    restored instance continues the exact key stream of the
    snapshotted one. *)

val spec_of_string :
  ?degree:int -> ?s_period:int -> ?seed:int -> string -> (spec, string) result
(** Parse a CLI organization selector (the [--org] flag):
    - ["one"] / ["one-keytree"], ["qt"], ["tt"], ["pt"] — a
      two-partition scheme;
    - ["loss:T1,T2,..."] — one-keytree bands placed by loss at the
      given ascending thresholds (loss-homogenized), e.g. ["loss:0.05"];
    - ["random:K"] — K one-keytree bands filled round-robin (the
      Fig. 6 control);
    - ["composed"] — TT inside each of two bands split at 0.05;
    - ["composed:KIND"] / ["composed:KIND@T1,T2,..."] — explicit
      per-band scheme and thresholds, e.g. ["composed:qt@0.02,0.1"].

    [degree], [s_period] and [seed] (defaults 4, 10, 0) fill the
    non-selector configuration fields. *)

(** {1 Composed node-id layout}

    Each band [b] of a composed organization runs its scheme with
    S-tree ids from [b * 2_000_000_000], L-tree ids from
    [b * 2_000_000_000 + 1_000_000_000], and its per-band DEK bound to
    the synthetic id [-(500_000_000 + b)], which never collides with
    [Scheme.dek_node], tree node ids, or the synthetic leaf ids of
    realistic member ids. The composed group DEK lives at
    [Scheme.dek_node]. *)
