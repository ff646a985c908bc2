(* Metrics are read back as an operator reads them: through the JSONL
   export. *)

module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Jsonx = Gkm_obs.Jsonx

let with_obs b f =
  let saved = Obs.enabled () in
  Obs.set_enabled b;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) f

let find s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go 0

(* [name]'s line of the export, if it has one. *)
let line reg name =
  List.find_opt
    (fun l -> find l (Printf.sprintf {|"name":%s,|} (Jsonx.str name)) <> None)
    (Metrics.to_jsonl reg)

(* The number [key] holds in [name]'s line; [nan] when there is no
   such line. *)
let field reg name key =
  match line reg name with
  | None -> Float.nan
  | Some l ->
      let k = Printf.sprintf {|"%s":|} key in
      let i = Option.get (find l k) + String.length k in
      let j = ref i in
      while l.[!j] <> ',' && l.[!j] <> '}' do
        incr j
      done;
      float_of_string (String.sub l i (!j - i))

let int_field reg name key =
  let v = field reg name key in
  if Float.is_nan v then 0 else int_of_float v

let counter ?(registry = Metrics.default) name = int_field registry name "value"
let count ?(registry = Metrics.default) name = int_field registry name "count"
