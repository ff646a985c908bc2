(** Minimal JSON emission for the JSONL exporters.

    Emission only — the observability subsystem never parses JSON.
    Every function returns a fragment that is valid JSON on its own,
    so lines are built by plain concatenation. *)

val str : string -> string
(** Quoted JSON string. *)

val int : int -> string

val float : float -> string
(** Shortest round-trippable decimal form that is still valid JSON:
    a plain [%.17g] would emit [inf]/[nan], which JSON forbids, so
    non-finite values are emitted as quoted strings ["inf"], ["-inf"],
    ["nan"]. Finite values use the shortest representation that
    round-trips through [float_of_string]. *)

val bool : bool -> string

val obj : (string * string) list -> string
(** [obj fields] renders one JSON object; values must already be
    rendered fragments. *)

val arr : string list -> string
