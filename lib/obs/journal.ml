type value = Bool of bool | Int of int | Float of float | Str of string

type event = { time : float; name : string; fields : (string * value) list }

type t = {
  capacity : int;
  ring : event option array;
  mutable total : int; (* events ever recorded *)
  mutable sink : (string -> unit) option;
}

let default =
  let capacity = 4096 in
  { capacity; ring = Array.make capacity None; total = 0; sink = None }

let value_json = function
  | Bool b -> Jsonx.bool b
  | Int i -> Jsonx.int i
  | Float f -> Jsonx.float f
  | Str s -> Jsonx.str s

let to_jsonl_line ev =
  Jsonx.obj
    (("time", Jsonx.float ev.time)
    :: ("event", Jsonx.str ev.name)
    :: List.map (fun (k, v) -> (k, value_json v)) ev.fields)

let record ~time name fields =
  let ev = { time; name; fields } in
  default.ring.(default.total mod default.capacity) <- Some ev;
  default.total <- default.total + 1;
  match default.sink with None -> () | Some f -> f (to_jsonl_line ev)

let length t = min t.total t.capacity

let events t =
  let n = length t in
  let first = t.total - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some ev -> ev
      | None -> assert false (* slots below [length] are always filled *))

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.total <- 0

let set_sink t sink = t.sink <- sink

let attach_channel t oc =
  set_sink t
    (Some
       (fun line ->
         output_string oc line;
         output_char oc '\n'))
