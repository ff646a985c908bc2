(** HMAC-SHA-256 (RFC 2104 / FIPS 198-1). *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is the 32-byte HMAC-SHA-256 of [msg] under [key].
    Keys longer than the 64-byte block size are hashed first, per the
    specification. *)

val mac_parts : key:bytes -> (bytes * int * int) list -> bytes
(** [mac_parts ~key parts] is {!mac} of the concatenation of the
    slices [(b, off, len)] in [parts], each hashed where it lies
    instead of being copied into one message first.
    @raise Invalid_argument if a slice is not inside its buffer. *)

val mac_string : key:string -> string -> bytes
(** [mac_string ~key msg] is {!mac} on string inputs. *)

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** [verify ~key msg ~tag] checks [tag] in constant time with respect
    to the tag contents. *)
