(** Hexadecimal encoding and decoding of byte strings. *)

val encode : bytes -> string
(** [encode b] is the lowercase hexadecimal representation of [b]. *)

val decode : string -> bytes
(** [decode s] parses a hexadecimal string (upper or lower case) back
    into bytes.

    @raise Invalid_argument if [s] has odd length or contains a
    character outside [0-9a-fA-F]. *)
