(** Machine-readable description of the message-body grammar.

    One {!rule} per wire tag, listing the body's fields in encoding
    order with just enough typing for a generator to produce
    structurally valid bodies and for a mutator to aim at specific
    fields. This is introspection over {!Msg}, not a second codec:
    [test/wire] asserts that every rule-driven generation is accepted
    by {!Msg.decode_body} and that the field list reproduces the
    encoder's byte layout, so the two cannot drift silently.

    Semantic constraints that span fields — HELLO's [lo <= hi], a
    REKEY's [seq < total] — are expressed as dedicated field kinds
    ({!Version_range}, {!Seq_total}) rather than side conditions, so a
    grammar-aware fuzzer knows exactly which invariant each mutation
    breaks. *)

type field =
  | U8 of string  (** free octet *)
  | Enum of string * int array  (** u8 restricted to the listed values *)
  | U16 of string
  | I32 of string
  | I64 of string  (** full-width (PING tokens, record seqs) *)
  | Node of string
      (** i64 node id; the decoder rejects values outside the native
          [int] range — they cannot round-trip through
          [Int64.to_int] *)
  | F64_unit of string  (** finite float in [0, 1] *)
  | Key of string  (** raw {!Gkm_crypto.Key.size}-byte key material *)
  | Var16 of string  (** u16 length prefix + bytes *)
  | Var32 of string  (** i32 length prefix + bytes *)
  | String16 of string
  | Path of string  (** u16 count + (i64 node, key) items *)
  | U16_list of string  (** u16 count + u16 items *)
  | Version_range of string * string  (** u8 [lo] <= u8 [hi] *)
  | Seq_total of string * string  (** u16 [seq] < u16 [total], [total >= 1] *)

type rule = {
  tag : int;
  name : string;  (** {!Msg.tag_name} of [tag] *)
  fields : field list;  (** body layout, in encoding order *)
}

val rules : rule list
(** Every message type, ascending tag. *)

val rule_of_tag : int -> rule option

val field_label : field -> string
(** Display name: the field's name, or ["a/b"] for paired kinds. *)
