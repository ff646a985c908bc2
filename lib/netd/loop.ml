module Heap = Gkm_sim.Heap

(* Target descriptors travel as raw ints (on Unix [Unix.file_descr] is
   the fd number): they index [slots] and need no boxing. *)
external epoll_create : unit -> Unix.file_descr = "gkm_netd_epoll_create"
external epoll_ctl : Unix.file_descr -> int -> int -> int -> int -> unit = "gkm_netd_epoll_ctl"
external epoll_wait : Unix.file_descr -> int array -> int -> int = "gkm_netd_epoll_wait"
external int_of_fd : Unix.file_descr -> int = "%identity"

let op_add = 0
let op_mod = 1
let op_del = 2
let rd = 1
let wr = 2

(* [tag] is (registration id lsl 32) lor fd, handed to the kernel with
   the registration and returned with every event, so an event queued
   for a descriptor that was removed — even one whose number a new
   registration already reuses — never reaches the wrong handler. *)
type handler = {
  tag : int;  (* 0: free slot *)
  readable : unit -> unit;
  writable : unit -> unit;
  mutable write : bool;  (* EPOLLOUT armed *)
}

let free = { tag = 0; readable = ignore; writable = ignore; write = false }

type timer = { at : float; seq : int; fire : unit -> unit }
type counters = { steps : int; dispatched : int; interest_changes : int }

type t = {
  epfd : Unix.file_descr;
  mutable closed : bool;
  mutable slots : handler array;  (* indexed by fd *)
  mutable next_id : int;
  events : int array;  (* (tag, ready) pairs filled by epoll_wait *)
  timers : timer Heap.t;
  mutable timer_seq : int;
  mutable steps : int;
  mutable dispatched : int;
  mutable interest_changes : int;
}

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.epfd with Unix.Unix_error _ -> ()
  end

(* Ready descriptors one step dispatches; the rest wait for the next
   step. *)
let max_events = 512

let create () =
  (* Writes to reset peers must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      epfd = epoll_create ();
      closed = false;
      slots = Array.make 64 free;
      next_id = 0;
      events = Array.make (2 * max_events) 0;
      timers =
        Heap.create ~cmp:(fun a b ->
            let c = compare a.at b.at in
            if c <> 0 then c else compare a.seq b.seq);
      timer_seq = 0;
      steps = 0;
      dispatched = 0;
      interest_changes = 0;
    }
  in
  Gc.finalise close t;
  t

let now _t = Unix.gettimeofday ()

let lookup t key = if key < Array.length t.slots then t.slots.(key) else free

let add_fd t fd ~readable ~writable =
  if t.closed then invalid_arg "Loop.add_fd: loop closed";
  let key = int_of_fd fd in
  if (lookup t key).tag <> 0 then invalid_arg "Loop.add_fd: fd already registered";
  if key >= Array.length t.slots then begin
    let slots = Array.make (max (key + 1) (2 * Array.length t.slots)) free in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end;
  t.next_id <- (if t.next_id >= 0x3FFF_FFFF then 1 else t.next_id + 1);
  let tag = (t.next_id lsl 32) lor key in
  epoll_ctl t.epfd op_add key rd tag;
  t.slots.(key) <- { tag; readable; writable; write = false }

let remove_fd t fd =
  let key = int_of_fd fd in
  if (lookup t key).tag <> 0 then begin
    t.slots.(key) <- free;
    if not t.closed then epoll_ctl t.epfd op_del key 0 0
  end

let set_write_interest t fd on =
  let h = lookup t (int_of_fd fd) in
  if h.tag <> 0 && h.write <> on && not t.closed then begin
    epoll_ctl t.epfd op_mod (int_of_fd fd) (if on then rd lor wr else rd) h.tag;
    h.write <- on;
    t.interest_changes <- t.interest_changes + 1
  end

let at t ~time fire =
  t.timer_seq <- t.timer_seq + 1;
  Heap.push t.timers { at = time; seq = t.timer_seq; fire }

let after t ~delay fire = at t ~time:(now t +. delay) fire

let fire_due t =
  let rec go () =
    match Heap.peek t.timers with
    | Some tm when tm.at <= now t ->
        ignore (Heap.pop t.timers);
        tm.fire ();
        go ()
    | _ -> ()
  in
  go ()

let dispatch t n =
  for i = 0 to n - 1 do
    let tag = t.events.(2 * i) and ready = t.events.((2 * i) + 1) in
    let key = tag land 0xFFFF_FFFF in
    (* A handler may deregister any fd (including itself) — consult
       the slot before each callback. *)
    (if ready land rd <> 0 then
       let h = t.slots.(key) in
       if h.tag = tag then begin
         t.dispatched <- t.dispatched + 1;
         h.readable ()
       end);
    if ready land wr <> 0 then begin
      let h = t.slots.(key) in
      if h.tag = tag && h.write then begin
        t.dispatched <- t.dispatched + 1;
        h.writable ()
      end
    end
  done

let step ?(max_wait = 0.2) t =
  if t.closed then invalid_arg "Loop.step: loop closed";
  t.steps <- t.steps + 1;
  fire_due t;
  let wait =
    match Heap.peek t.timers with
    | Some tm -> Float.max 0.0 (Float.min max_wait (tm.at -. now t))
    | None -> max_wait
  in
  (* Round up: a timer due in under half a millisecond must not turn
     into a zero timeout and a busy spin until it is due. *)
  let timeout_ms = int_of_float (Float.ceil (wait *. 1000.0)) in
  dispatch t (epoll_wait t.epfd t.events timeout_ms);
  fire_due t

let counters t =
  { steps = t.steps; dispatched = t.dispatched; interest_changes = t.interest_changes }

let run t ~until =
  while not (until ()) do
    step t
  done

module Private = struct
  let max_events = max_events
  let counters = counters
end
