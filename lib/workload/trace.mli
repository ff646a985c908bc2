(** Recording and replaying membership traces.

    The key server of Section 3.4 tunes itself from "collected trace
    data"; this module gives traces a concrete portable form (a CSV
    dialect), plus the derived statistics the tuning needs. *)

val to_csv : Membership.event list -> string
(** One event per line: [time,member,class,kind] with [class] in
    {s,l} and [kind] in {join,depart}. Header line included. *)

val of_csv : string -> (Membership.event list, string) result
(** Inverse of {!to_csv}; tolerates blank lines and a missing header.
    [Error] pinpoints the first malformed line. Events are re-sorted
    chronologically. *)

val durations : Membership.event list -> float list
(** Completed membership durations (join and depart both present). *)

val censored : Membership.event list -> int
(** Members that joined but never departed within the trace. *)
