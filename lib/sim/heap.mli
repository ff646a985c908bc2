(** Imperative binary min-heap, the priority queue behind the
    discrete-event {!Engine}. *)

type 'a t
(** A min-heap of elements ordered by a fixed comparison. *)

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit
(** [push h x] inserts [x]. O(log n). *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element, if any. O(1). *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. O(log n). *)
