let header = "time,member,class,kind"

let cls_to_string = function Membership.Short -> "s" | Long -> "l"
let kind_to_string = function `Join -> "join" | `Depart -> "depart"

let to_csv events =
  let buf = Buffer.create (64 * (List.length events + 1)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (e : Membership.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%.17g,%d,%s,%s\n" e.time e.member (cls_to_string e.cls)
           (kind_to_string e.kind)))
    events;
  Buffer.contents buf

let parse_line lineno line =
  match String.split_on_char ',' line with
  | [ time; member; cls; kind ] -> (
      match
        ( float_of_string_opt (String.trim time),
          int_of_string_opt (String.trim member),
          String.trim cls,
          String.trim kind )
      with
      | Some time, Some member, ("s" | "l"), ("join" | "depart") ->
          let cls =
            if String.trim cls = "s" then Membership.Short else Membership.Long
          in
          let kind = if String.trim kind = "join" then `Join else `Depart in
          Ok { Membership.time; member; cls; kind }
      | _ -> Error (Printf.sprintf "line %d: malformed fields in %S" lineno line))
  | _ -> Error (Printf.sprintf "line %d: expected 4 comma-separated fields in %S" lineno line)

let of_csv text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] ->
        Ok
          (List.stable_sort
             (fun (a : Membership.event) b -> compare a.time b.time)
             (List.rev acc))
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed = header then go (lineno + 1) acc rest
        else begin
          match parse_line lineno trimmed with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error _ as err -> err
        end
  in
  go 1 [] lines

let durations events =
  let join_time = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun (e : Membership.event) ->
      match e.kind with
      | `Join -> Hashtbl.replace join_time e.member e.time
      | `Depart -> (
          match Hashtbl.find_opt join_time e.member with
          | Some t0 ->
              out := (e.time -. t0) :: !out;
              Hashtbl.remove join_time e.member
          | None -> ()))
    events;
  List.rev !out

let censored events =
  let open_members = Hashtbl.create 64 in
  List.iter
    (fun (e : Membership.event) ->
      match e.kind with
      | `Join -> Hashtbl.replace open_members e.member ()
      | `Depart -> Hashtbl.remove open_members e.member)
    events;
  Hashtbl.length open_members
