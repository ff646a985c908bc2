(** Process-wide metrics registry: named counters, gauges and
    fixed-bucket log2 histograms.

    A registry maps metric names to live accumulators. Creation is
    idempotent — [Counter.v "x"] returns the same counter every time —
    so instrumentation sites can look their metrics up by name without
    coordinating module initialization order. All operations are O(1)
    and allocation-free on the record path (histogram observation is
    an array increment).

    The library is domain-safe: counters and gauges are atomics,
    histogram observation and reads run under a per-histogram mutex,
    and the name table is guarded by a per-registry mutex, so
    instrumentation may record from any domain and lose nothing —
    [Counter.v "x"] called concurrently from two domains returns the
    same counter, and increments from K domains sum exactly. Snapshot
    exports ([to_jsonl], [pp_table]) read each metric atomically but
    are not a point-in-time cut across metrics; take them when writers
    are quiescent if cross-metric consistency matters.

    Histograms use fixed log2 buckets: bucket [i] counts observations
    [v] with [2^(min_exp+i-1) < v <= 2^(min_exp+i)] (the ["le"] of
    {!to_jsonl}), spanning [2^-32 .. 2^31] with underflow clamped into
    bucket 0 and overflow into the last bucket. Fixed buckets keep
    recording O(1) with no rebalancing, make histograms of the same
    name mergeable across registries by element-wise addition
    ({!merge_into}), and give stable bucket boundaries across runs —
    the properties a JSONL trajectory format needs. Exact [count],
    [sum], [min] and [max] are tracked alongside, so means are exact
    and only quantiles are bucket-quantized (upper-bound estimates). *)

type registry

val default : registry
(** The process-wide registry all instrumentation records into unless
    told otherwise. *)

val reset : registry -> unit
(** Zero every accumulator, keeping registrations (names and types). *)

val reset_all : unit -> unit
(** [reset default] — zero the process-wide registry between
    repetitions of an experiment (seed sweeps in one process, the CLI
    between runs, tests). Accumulators only: the registration table is
    untouched, so metric handles cached in top-level bindings stay
    valid. *)

module Counter : sig
  type t

  val v : ?registry:registry -> string -> t
  (** Find-or-create.
      @raise Invalid_argument if the name is registered as a different
      metric kind. *)

  val incr : t -> unit
  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val v : ?registry:registry -> string -> t
  (** Find-or-create.
      @raise Invalid_argument on a kind clash. *)

  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val v : ?registry:registry -> string -> t
  (** Find-or-create.
      @raise Invalid_argument on a kind clash. *)

  val observe : t -> float -> unit

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0, 1]: the upper bound of the first
      bucket reaching cumulative fraction [q] — an upper-bound
      estimate, clamped to the exact observed maximum. [nan] if empty.
      @raise Invalid_argument if [q] outside [0, 1]. *)
end

val merge_into : src:registry -> dst:registry -> unit
(** Fold [src] into [dst]: counters add, histograms add element-wise,
    gauges take the [src] value (last writer wins). Metrics missing
    from [dst] are created.
    @raise Invalid_argument on a kind clash between same-named
    metrics. *)

val to_jsonl : registry -> string list
(** One JSON object per metric, sorted by name. Shapes:
    [{"type":"counter","name":n,"value":v}],
    [{"type":"gauge","name":n,"value":v}],
    [{"type":"histogram","name":n,"count":c,"sum":s,"min":m,"max":m,
      "buckets":[{"le":u,"count":c},...]}] (non-empty buckets only;
    the overflow bucket's ["le"] is the string ["inf"]). *)

val pp_table : Format.formatter -> registry -> unit
(** Human-readable aligned table, sorted by name. *)

module Private : sig
  val create : unit -> registry
  (** A fresh, empty registry, so a test's metrics neither see nor
      leak into {!default}. *)
end
