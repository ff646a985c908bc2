(** Machine-readable description of the message-body grammar.

    One {!rule} per wire tag, listing the body's fields in encoding
    order with just enough typing for a generator to produce
    structurally valid bodies and for a mutator to aim at specific
    fields. This is introspection over {!Msg}, not a second codec:
    [test/wire] asserts that every rule-driven generation is accepted
    by {!Msg.decode_body} and that the field list reproduces the
    encoder's byte layout, so the two cannot drift silently.

    The one semantic constraint that spans fields, a REKEY's
    [seq < total], is a dedicated field kind ({!Seq_total}) rather than
    a side condition, so a grammar-aware fuzzer knows exactly which
    invariant a mutation breaks. *)

type field =
  | U8 of string  (** free octet *)
  | Enum of string * int array  (** u8 restricted to the listed values *)
  | Uvarint of string * int
      (** canonical unsigned LEB128 no greater than the bound: i32-ranged
          numbers (ids, epochs, counters) or u16 packet indices *)
  | Varint of string  (** zigzag LEB128 of any int (node ids) *)
  | I64 of string  (** fixed width (PING/PONG tokens) *)
  | Seq64 of string
      (** record sequence number: {!Gkm_crypto.Codec.add_seq64}, 1 to
          10 bytes, canonical only *)
  | F64_unit of string  (** finite float in [0, 1] *)
  | Rest of string
      (** trailing bytes: the rest of the body, no length; always the
          last field *)
  | Path of string  (** uvarint count + (varint node, 16-byte key) items *)
  | Uvarint_list of string * int  (** uvarint count + bounded uvarint items *)
  | Seq_total of string * string
      (** u16-ranged uvarints [seq] < [total], [total >= 1] *)

type rule = {
  tag : int;
  name : string;  (** {!Msg.tag_name} of [tag] *)
  fields : field list;  (** body layout, in encoding order *)
}

val rules : rule list
(** Every message type, ascending tag; none for the reserved tags. *)
