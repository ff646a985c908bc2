(** The checked-in crasher corpus: one frame per line, hex-encoded,
    with a [# label] trailer. Lines starting with [#] and blank lines
    are skipped, so the file doubles as its own documentation.

    The corpus is replayed two ways: [test/wire] runs every entry
    through the full decoder battery under [dune runtest], and
    [gkm conform --fuzz] replays it before spending its generation
    budget — a crasher found once can never regress silently. *)

val hex_of_bytes : bytes -> string
type entry = { label : string; frame : bytes }

val load : string -> (entry list, string) result
(** Read a corpus file. [Error] on an unreadable file or a malformed
    line (reported with its line number). *)

val append : string -> label:string -> bytes -> unit
(** Append one entry to a corpus file, creating it if needed. *)
