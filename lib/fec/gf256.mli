(** Arithmetic in GF(2^8) with the AES/Rijndael-compatible reduction
    polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), generator 2.

    This is the field underlying the Reed-Solomon erasure code used by
    the proactive-FEC rekey transport [YLZL01]. All values are ints in
    [0, 255]. *)

val add : int -> int -> int
(** Field addition (XOR). *)

val sub : int -> int -> int
(** Field subtraction (identical to addition in characteristic 2). *)

val mul : int -> int -> int
(** Field multiplication, table-based. *)

val div : int -> int -> int
(** Field division. @raise Division_by_zero if the divisor is 0. *)
