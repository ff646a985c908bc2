module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics

type event = { time : float; seq : int; action : t -> unit }
and t = { mutable clock : float; mutable next_seq : int; queue : event Heap.t }

let m_dispatched = Metrics.Counter.v "sim.events_dispatched"
let m_queue_depth = Metrics.Gauge.v "sim.queue_depth"

let compare_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create () = { clock = 0.0; next_seq = 0; queue = Heap.create ~cmp:compare_event }
let now t = t.clock

let schedule t ~at action =
  if at < t.clock then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at t.clock);
  Heap.push t.queue { time = at; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1

let schedule_after t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) action

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      t.clock <- ev.time;
      if Obs.enabled () then begin
        Metrics.Counter.incr m_dispatched;
        Metrics.Gauge.set m_queue_depth (float_of_int (Heap.length t.queue))
      end;
      ev.action t;
      true

let run ?until t =
  let continue () =
    match (Heap.peek t.queue, until) with
    | None, _ -> false
    | Some ev, Some limit -> ev.time <= limit
    | Some _, None -> true
  in
  while continue () do
    ignore (step t)
  done;
  match until with Some limit when limit > t.clock -> t.clock <- limit | _ -> ()
