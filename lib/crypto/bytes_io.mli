(** Big-endian scalars at fixed offsets: the stdlib accessors plus the
    range checks the encoders rely on. For fixed-size fields (frame
    headers, record nonces); variable formats go through {!Codec}.

    Writers return the cursor after the written field; readers never
    allocate and raise [Invalid_argument] out of bounds (use {!has}). *)

val put_u8 : bytes -> int -> int -> int
val put_u16 : bytes -> int -> int -> int
(** @raise Invalid_argument if the value exceeds 16 bits. *)

val put_i32 : bytes -> int -> int -> int
(** @raise Invalid_argument if the value exceeds 32 signed bits. *)

val put_i64 : bytes -> int -> int64 -> int

val add_u8 : Buffer.t -> int -> unit
(** Buffer-targeting writers: identical encodings to the [put_*]
    family, appended directly to a [Buffer.t] so snapshot emitters
    allocate one buffer per snapshot instead of one scratch [bytes]
    per field. *)

val add_u16 : Buffer.t -> int -> unit
(** @raise Invalid_argument if the value exceeds 16 bits. *)

val add_i32 : Buffer.t -> int -> unit
(** @raise Invalid_argument if the value exceeds 32 signed bits. *)

val add_i64 : Buffer.t -> int64 -> unit

val get_u8 : bytes -> int -> int
val get_u16 : bytes -> int -> int
val get_i32 : bytes -> int -> int
(** Sign-extending. *)

val get_i64 : bytes -> int -> int64

val has : bytes -> pos:int -> len:int -> bool
(** [has buf ~pos ~len] is true when [len] bytes are available at
    [pos]. *)
