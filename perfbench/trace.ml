(* In-memory spans around the benchmark's calls into each layer.

   A span records its name ("layer.what"), start and end (wall clock,
   seconds), the span that was open when it began, and the rekey it
   belongs to — the id shared by every span of one rekey. Spans are
   kept in memory and written out once, when the run ends. With
   tracing off [span] is a plain call. *)

type span = { id : int; name : string; parent : int; rekey_no : int; start : float; stop : float }

let on = ref false
let rekey_no = ref 0
let next_id = ref 0
let stack = ref []
let spans = ref []
let now = Unix.gettimeofday

(* Reserve a span id, parented by the innermost open span. *)
let fresh () =
  let id = !next_id in
  incr next_id;
  (id, match !stack with p :: _ -> p | [] -> -1)

let span name f =
  if not !on then f ()
  else begin
    let id, parent = fresh () in
    stack := id :: !stack;
    let start = now () in
    let r = f () in
    let stop = now () in
    stack := List.tl !stack;
    spans := { id; name; parent; rekey_no = !rekey_no; start; stop } :: !spans;
    r
  end

(* An interval timed from callbacks rather than around one call. *)
let record name ~start ~stop =
  if !on then begin
    let id, parent = fresh () in
    spans := { id; name; parent; rekey_no = !rekey_no; start; stop } :: !spans
  end

let dur s = s.stop -. s.start

(* Per rekey, the summed duration of every span named [name] — one
   sample per rekey that has any. *)
let per_rekey name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.rekey_no
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.rekey_no)))
    !spans;
  Stats.of_list (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

(* One sample per span named [name]. *)
let durations name =
  Stats.of_list (List.filter_map (fun s -> if s.name = name then Some (dur s) else None) !spans)

(* The median over rekeys of [per_rekey name], in ms. *)
let ms_per_rekey name = Stats.median (per_rekey name) *. 1e3

(* Busy time of the spans named [name] per unit of work, in us. *)
let us_per name count =
  if count = 0 then 0.0 else Stats.sum (durations name) *. 1e6 /. float_of_int count

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Per layer: span count, busy time (sum of durations) and self time
   (each span's duration minus what its children cover). Spans named
   "wait.*" time a wait rather than work — they overlap one another —
   and stay out of every layer's busy and self time. *)
let layers () =
  let child = Hashtbl.create 1024 in
  let work = List.filter (fun s -> layer_of s.name <> "wait") !spans in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    work;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = layer_of s.name in
      let c, busy, self = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc l) in
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace acc l (c + 1, busy +. dur s, self +. Float.max 0.0 (dur s -. kids)))
    work;
  List.sort compare (Hashtbl.fold (fun l v a -> (l, v) :: a) acc [])

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rekey_no\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.name s.parent s.rekey_no s.start s.stop)
    (List.rev !spans);
  List.iter
    (fun (l, (c, busy, self)) ->
      Printf.fprintf oc "{\"layer\":%S,\"count\":%d,\"busy_ms\":%.3f,\"self_ms\":%.3f}\n" l c
        (busy *. 1e3) (self *. 1e3))
    (layers ());
  close_out oc
