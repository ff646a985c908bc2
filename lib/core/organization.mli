(** One pluggable group organization.

    The paper implements two unrelated optimizations: the
    two-partition schemes of Section 3 ({!Scheme}) and the
    loss-homogenized multi-tree of Section 4 ({!Loss_tree}). This
    module unifies them — and any future member-placement policy —
    behind a single first-class-module signature, so the full
    executable stack ({!Session}, {!Sim_driver}, the CLI, the bench
    harness) is polymorphic in the organization: crypto, WKA-BKR/FEC
    transport, lossy channels and member-side verification all run
    unchanged over any packed [(module S)].

    On top of the unified interface lives the organization the paper
    motivates but cannot express: {!Composed_cfg} runs a full
    two-partition scheme {e inside each loss band}, every band's
    partitions under a per-band DEK and all band DEKs under one
    composed group DEK — both optimizations stacked end-to-end. *)

(** The organization interface. A packed module is one stateful
    instance (create it with {!create}); all operations act on that
    instance's hidden state. *)
module type S = sig
  val name : string
  (** Human-readable organization name, for reports. *)

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

  val describe : unit -> (string * string) list
  (** Snapshot metadata: organization kind and configuration as flat
      key/value pairs, for journals and bench reports. *)

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

type composed_config = {
  kind : Scheme.kind;  (** the two-partition scheme run inside each band *)
  degree : int;
  s_period : int;
  seed : int;
  thresholds : float list;  (** ascending loss thresholds; bands = length + 1 *)
}

type spec =
  | Scheme_cfg of Scheme.config  (** Section 3: one of the four two-partition schemes *)
  | Loss_cfg of Loss_tree.config  (** Section 4: loss-homogenized (or random) multi-tree *)
  | Composed_cfg of composed_config
      (** a two-partition scheme inside each loss band, stacked under
          one composed DEK *)
  | Derived_cfg of spec
      (** run the wrapped organization with KDF-derived node-key
          refresh ([Keytree.Derived]) instead of classical wraps.
          Idempotent: nested wrappings collapse to one. *)

val spec_name : spec -> string
(** Short display name, e.g. ["TT-scheme"], ["loss-homogenized(0.05)"],
    ["composed(TT-scheme@0.05)"]; derived mode appends ["+derived"]. *)

val base_spec : spec -> spec
(** The spec with any [Derived_cfg] wrappers stripped. *)

val spec_keys_mode : spec -> Gkm_keytree.Keytree.mode
(** [Derived] iff the spec is wrapped in [Derived_cfg]. *)

val with_keys_mode : Gkm_keytree.Keytree.mode -> spec -> spec
(** Force the key-refresh mode of a spec (stripping or adding the
    [Derived_cfg] wrapper as needed). *)

val keys_mode_name : Gkm_keytree.Keytree.mode -> string
(** ["wrap"] or ["derived"] — the [--keys] CLI vocabulary. *)

val create : spec -> packed
(** Instantiate a fresh organization. A [Scheme_cfg] or [Loss_cfg]
    organization delegates directly: its rekey messages, placements
    and key material are bit-identical to calling {!Scheme} or
    {!Loss_tree} itself.
    @raise Invalid_argument on an invalid configuration (bad degree,
    unsorted thresholds, negative S-period). *)

val restore : spec -> bytes -> (packed, string) result
(** Rebuild an organization from a [snapshot ()] blob. The [spec]
    only selects the decoder family (its constructor must match the
    organization that produced the blob); every configuration detail —
    seeds, thresholds, RNG positions — comes from the blob, so the
    restored instance continues the exact key stream of the
    snapshotted one. *)

val spec_of_string :
  ?degree:int -> ?s_period:int -> ?seed:int -> string -> (spec, string) result
(** Parse a CLI organization selector (the [--org] flag):
    - ["one"] / ["one-keytree"], ["qt"], ["tt"], ["pt"] — a
      two-partition scheme;
    - ["loss:T1,T2,..."] — loss-homogenized with the given ascending
      thresholds, e.g. ["loss:0.05"];
    - ["random:K"] — K randomly-filled trees (the Fig. 6 control);
    - ["composed"] — TT inside each of two bands split at 0.05;
    - ["composed:KIND"] / ["composed:KIND@T1,T2,..."] — explicit
      per-band scheme and thresholds, e.g. ["composed:qt@0.02,0.1"].

    Any selector may carry a ["+derived"] suffix (e.g.
    ["tt+derived"]) to run in derived key-refresh mode.

    [degree], [s_period] and [seed] (defaults 4, 10, 0) fill the
    non-selector configuration fields. *)

(** {1 Composed node-id layout}

    Each band [b] of a composed organization runs its scheme with
    S-tree ids from [b * 2_000_000_000], L-tree ids from
    [b * 2_000_000_000 + 1_000_000_000], and its per-band DEK bound to
    the synthetic id {!band_dek_id}[ b]. The composed group DEK lives
    at [Scheme.dek_node]. *)

val band_dek_id : int -> int
(** The synthetic node id of band [b]'s DEK: [-(500_000_000 + b)].
    Never collides with [Scheme.dek_node], tree node ids, or
    [Scheme.synthetic_leaf] ids of realistic member ids. *)
