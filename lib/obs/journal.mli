(** Append-only JSONL event journal with a bounded in-memory ring.

    Instrumented sites record named events with typed fields and an
    explicit timestamp (sim time in discrete-event runs). The journal
    keeps the most recent 4096 events in memory — older events are
    evicted — and optionally mirrors every event, at record time, to a
    sink (one JSONL line per event), so a file sink sees the complete
    stream even when the ring has wrapped. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event = { time : float; name : string; fields : (string * value) list }

type t

val default : t
(** The process-wide journal the built-in instrumentation records
    into. *)

val record : time:float -> string -> (string * value) list -> unit
(** Append an event to {!default}.
    Unconditional — instrumentation sites gate on {!Obs.enabled}
    themselves so the hot path pays one branch, not a call. *)

val events : t -> event list
(** Retained events, oldest first. *)

val clear : t -> unit
(** Drop all events and reset the counters; the sink stays. *)

val set_sink : t -> (string -> unit) option -> unit
(** [set_sink t (Some f)] calls [f line] with each event's JSONL line
    as it is recorded; [None] detaches. *)

val attach_channel : t -> out_channel -> unit
(** Convenience file sink: write each line plus ["\n"] to the
    channel. The caller owns flushing and closing. *)

val to_jsonl_line : event -> string
(** [{"time":t,"event":name,<fields...>}] — field names are emitted
    at the top level, so they must not collide with ["time"] or
    ["event"]. *)
