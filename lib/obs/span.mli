(** Lightweight span tracing.

    [with_span "rekey.build" f] times [f] and records the duration
    into the histogram ["span.rekey.build"] of the target registry
    (the histogram's count doubles as the call counter). Spans nest,
    but nesting is purely informational: each span name gets its own
    duration histogram, and a parent's duration includes its
    children's.

    The clock is [Sys.time] — portable monotonic CPU seconds, which is
    exactly the "where does the compute go" breakdown wanted from spans
    around tree updates, key wrapping and delivery. In discrete-event
    runs a span therefore measures the CPU the simulation spent, not
    simulated time. See DESIGN.md ("Observability").

    When {!Obs.enabled} is false, [with_span name f] is exactly
    [f ()]. *)

val with_span : ?registry:Metrics.registry -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a named span. The duration (clamped to >= 0) is
    observed into histogram ["span." ^ name] — also when [f] raises.
    A no-op wrapper when observability is disabled. *)
