(** Append-only [(rekey_no, DEK fingerprint)] log, 4 bytes per entry.

    Server and clients record one entry per rekey for the lifetime of
    the process, so a list of boxed pairs (~72 bytes each) would grow
    the heap with every rekey. Each entry here is the fingerprint's 4
    raw bytes; its [rekey_no] is the previous entry's plus one. The
    first entry, a jump in the numbering and the no-key fingerprint
    [""] also keep a boxed mark with their number, so a log that
    follows rekey after rekey grows by 4 bytes a rekey. Entries are
    stored in fixed 2 KiB chunks of 512 that are appended and never
    copied, so a log's growth never re-allocates its history. *)

type t

val create : unit -> t

val add : t -> rekey_no:int -> string -> unit
(** [add t ~rekey_no fp] appends one entry. [fp] is [""] or an
    8-hex-digit {!Gkm_crypto.Key.fingerprint}. [rekey_no] is kept
    modulo 2^31: a server numbers its rekeys from 0, and at ten a
    second takes years to leave that range, so only a hostile peer's
    numbers are folded, and the log never raises on them.
    @raise Invalid_argument if [fp] is neither. *)

val to_list : t -> (int * string) list
(** Every entry, oldest first, fingerprints as they were added. *)
