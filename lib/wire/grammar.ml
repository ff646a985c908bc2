type field =
  | U8 of string
  | Enum of string * int array
  | U16 of string
  | I32 of string
  | I64 of string
  | Node of string
  | F64_unit of string
  | Key of string
  | Var16 of string
  | Var32 of string
  | String16 of string
  | Path of string
  | U16_list of string
  | Version_range of string * string
  | Seq_total of string * string

type rule = { tag : int; name : string; fields : field list }

(* The REKEY/RETX body (Msg.add_rekey): note that [seq]/[total] are
   encoded before the packet's own block/index fields. *)
let rekey_fields =
  [
    I32 "rekey_no";
    U8 "org";
    I32 "epoch";
    Node "root";
    Seq_total ("seq", "total");
    U16 "block";
    U16 "index_in_block";
    Var32 "payload";
  ]

let catchup_fields =
  [ I32 "member"; I32 "rekey_no"; I32 "epoch"; Node "root"; Path "path" ]

let rule tag fields = { tag; name = Msg.tag_name tag; fields }

let rules =
  [
    rule 1 [ Version_range ("lo", "hi") ];
    rule 2 [ U8 "version"; I32 "tp_ms"; I32 "max_frame"; I32 "capacity" ];
    rule 3 [ Enum ("cls", [| 0; 1 |]); F64_unit "loss" ];
    rule 4 catchup_fields;
    rule 5 rekey_fields;
    rule 6 [ I32 "rekey_no"; U16_list "seqs" ];
    rule 7 rekey_fields;
    rule 8 [ I32 "member"; I32 "epoch"; Var16 "auth" ];
    rule 9 catchup_fields;
    rule 10 [ I32 "member" ];
    rule 11 [ I64 "token" ];
    rule 12 [ I64 "token" ];
    rule 13 [ U8 "code"; String16 "detail" ];
    rule 14 [ I32 "epoch"; I64 "seq"; Var32 "ct" ];
    rule 15 [ I32 "member"; I32 "issued_epoch"; Var16 "ticket" ];
    rule 16 [ I32 "have_epoch"; Enum ("have_state", [| 0; 1 |]); Var16 "ticket" ];
    rule 17 [ I32 "member"; Var32 "ct" ];
  ]

let rule_of_tag t = List.find_opt (fun r -> r.tag = t) rules

let field_label = function
  | U8 n
  | Enum (n, _)
  | U16 n
  | I32 n
  | I64 n
  | Node n
  | F64_unit n
  | Key n
  | Var16 n
  | Var32 n
  | String16 n
  | Path n
  | U16_list n ->
      n
  | Version_range (a, b) | Seq_total (a, b) -> a ^ "/" ^ b
