type field =
  | U8 of string
  | Enum of string * int array
  | Uvarint of string * int
  | Varint of string
  | I64 of string
  | Seq64 of string
  | F64_unit of string
  | Rest of string
  | Path of string
  | Uvarint_list of string * int
  | Seq_total of string * string

type rule = { tag : int; name : string; fields : field list }

(* Msg's two uvarint ranges: i32-ranged numbers and u16 packet
   indices. *)
let num n = Uvarint (n, 0x7FFF_FFFF)
let idx n = Uvarint (n, 0xFFFF)

(* The REKEY body (Msg.add_rekey): note that [seq]/[total] are
   encoded before the packet's own block/index fields. *)
let rekey_fields =
  [
    num "rekey_no";
    U8 "org";
    num "epoch";
    Varint "root";
    Seq_total ("seq", "total");
    idx "block";
    idx "index_in_block";
    Rest "payload";
  ]

let rule tag fields = { tag; name = Msg.tag_name tag; fields }

let rules =
  [
    rule 3 [ Enum ("cls", [| 0; 1 |]); F64_unit "loss" ];
    rule 5 rekey_fields;
    rule 6 [ num "rekey_no"; Uvarint_list ("seqs", 0xFFFF) ];
    rule 8 [ num "member"; num "epoch"; Rest "auth" ];
    rule 9
      [ num "member"; num "rekey_no"; num "epoch"; Varint "root"; Path "path"; Rest "ticket" ];
    rule 10 [ num "member" ];
    rule 11 [ I64 "token" ];
    rule 12 [ I64 "token" ];
    rule 13 [ U8 "code"; Rest "detail" ];
    rule 14 [ num "epoch"; Seq64 "seq"; Rest "ct" ];
    rule 16 [ num "have_epoch"; Enum ("have_state", [| 0; 1 |]); Rest "ticket" ];
    rule 17 [ num "member"; Rest "ct" ];
  ]
