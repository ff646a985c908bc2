module Msg = Gkm_wire.Msg
module Metrics = Gkm_obs.Metrics
module Obs = Gkm_obs.Obs

external int_of_fd : Unix.file_descr -> int = "%identity"

let m_soft_skips = Metrics.Counter.v "netd.soft_skips"
let m_fanouts = Metrics.Counter.v "netd.shard_fanouts"

(* A member connection owned by one shard domain. [e_conn]'s write
   side is mutex-guarded (the tick domain enqueues unicast replies),
   but everything else here — strikes, dead flag, tx watermark, the
   read side of the conn — is touched only by the owning shard after
   attach. The attach command travels through a mutex-guarded queue,
   which is the happens-before edge that transfers ownership. *)
type entry = {
  e_fd : int;
  e_conn : Conn.t;
  e_shard : int;
  mutable e_strikes : int; (* consecutive soft-skipped fan-outs *)
  mutable e_dead : bool; (* shard will never touch the fd again *)
  mutable e_last_tx : int; (* Conn.bytes_tx watermark for per-domain tx *)
}

type dead_reason = Io | Slow

type event =
  | Msgs of entry * Msg.t list  (* decoded inbound traffic, for the tick domain *)
  | Dead of entry * dead_reason  (* shard stopped polling the fd; drop the client *)
  | Detached of entry  (* final event for an entry: the fd may now be closed *)

type cmd =
  | Attach of entry
  | Detach of { e : entry; farewell : bool }
  | Fanout of { frames : bytes array; recips : entry array }
  | Flush of entry  (* the tick domain queued a unicast frame on this entry *)
  | Stop

(* One byte down a pipe wakes an epoll_wait sleeper; the atomic flag
   coalesces rings so a burst of commands costs one write. Ordering
   matters on the receive side: drain the pipe FIRST, clear the flag
   SECOND, scan the queue LAST. While the flag is still set a
   concurrent ring only enqueues (no byte) and the scan picks it up;
   a ring after the clear writes a byte the next wait will see.
   Clearing before the drain would let a ring land in the gap: its
   byte gets drained, the flag stays set, and every later ring
   no-ops against a pipe that never turns readable again. *)
type doorbell = { rd : Unix.file_descr; wr : Unix.file_descr; notified : bool Atomic.t }

let doorbell () =
  let rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  { rd; wr; notified = Atomic.make false }

let ring db =
  if not (Atomic.exchange db.notified true) then
    try ignore (Unix.write db.wr (Bytes.make 1 '\001') 0 1)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let drain_fd fd =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read fd b 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let close_db db =
  (try Unix.close db.rd with Unix.Unix_error _ -> ());
  try Unix.close db.wr with Unix.Unix_error _ -> ()

type shard = {
  index : int;
  bell : doorbell;
  cmd_mu : Mutex.t;
  cmds : cmd Queue.t;
  tx : int Atomic.t; (* bytes written by this shard domain *)
  soft_skips : int Atomic.t;
  loop : Loop.t; (* created on the spawning domain, used only by this shard *)
  mutable domain : unit Domain.t option;
}

type t = {
  shards : shard array;
  ev_bell : doorbell;
  ev_mu : Mutex.t;
  events : event Queue.t;
  outbox_soft : int;
  outbox_hard : int;
  stall_strikes : int;
  mutable stopped : bool;
}

let domains t = Array.length t.shards
let entry_fd e = e.e_fd
let entry_conn e = e.e_conn
let entry_shard e = e.e_shard

let emit t ev =
  Mutex.protect t.ev_mu (fun () -> Queue.add ev t.events);
  ring t.ev_bell

let push _t sh cmd =
  Mutex.protect sh.cmd_mu (fun () -> Queue.add cmd sh.cmds);
  ring sh.bell

let take_cmds sh =
  Mutex.protect sh.cmd_mu (fun () ->
      let acc = ref [] in
      while not (Queue.is_empty sh.cmds) do
        acc := Queue.pop sh.cmds :: !acc
      done;
      List.rev !acc)

(* ---------------- shard domain body ---------------- *)

let account_tx sh e =
  let now = Conn.bytes_tx e.e_conn in
  let delta = now - e.e_last_tx in
  if delta > 0 then begin
    e.e_last_tx <- now;
    ignore (Atomic.fetch_and_add sh.tx delta)
  end

let mark_dead t sh e reason =
  if not e.e_dead then begin
    e.e_dead <- true;
    account_tx sh e;
    Loop.remove_fd sh.loop (Conn.fd e.e_conn);
    emit t (Dead (e, reason))
  end

let on_entry_readable t sh e () =
  if not (e.e_dead || Conn.closed e.e_conn) then
    match Conn.on_readable e.e_conn with
    | `Msgs [] -> ()
    | `Msgs msgs -> emit t (Msgs (e, msgs))
    | `Eof msgs | `Error (_, msgs) ->
        if msgs <> [] then emit t (Msgs (e, msgs));
        mark_dead t sh e Io

(* Write what is queued; write interest stays armed only while some
   of it is stuck. The writable handler, a fan-out and a [Flush]
   command all come through here. *)
let flush_entry t sh e =
  if not e.e_dead then
    match Conn.write_through sh.loop e.e_conn with
    | `Ok -> account_tx sh e
    | `Eof -> mark_dead t sh e Io

let attach_entry t sh e =
  Loop.add_fd sh.loop (Conn.fd e.e_conn)
    ~readable:(on_entry_readable t sh e)
    ~writable:(fun () -> flush_entry t sh e);
  (* Replies the tick domain wrote before the handoff may still be
     queued behind a full socket. *)
  flush_entry t sh e

(* Soft tier: skip this rekey's frames; the client sees a rekey_no gap
   and recovers via NACK/RESYNC. Skipping stops backlog growth, so a
   stuck client would never cross the hard mark: strike it out after
   [stall_strikes] consecutive skipped fan-outs instead. *)
let backpressure ~outbox_soft ~outbox_hard ~stall_strikes ~on_skip ~backlog strikes =
  if backlog > outbox_hard then (`Evict, strikes)
  else if backlog > outbox_soft then begin
    on_skip ();
    if Obs.enabled () then Metrics.Counter.incr m_soft_skips;
    let strikes = strikes + 1 in
    ((if strikes >= stall_strikes then `Evict else `Skip), strikes)
  end
  else (`Send, 0)

let do_fanout t sh ~frames ~recips =
  if Obs.enabled () then Metrics.Counter.incr m_fanouts;
  let on_skip () = Atomic.incr sh.soft_skips in
  Array.iter
    (fun e ->
      if not (e.e_dead || Conn.closed e.e_conn) then begin
        let verdict, strikes =
          backpressure ~outbox_soft:t.outbox_soft ~outbox_hard:t.outbox_hard
            ~stall_strikes:t.stall_strikes ~on_skip ~backlog:(Conn.out_bytes e.e_conn)
            e.e_strikes
        in
        e.e_strikes <- strikes;
        match verdict with
        | `Evict -> mark_dead t sh e Slow
        | `Skip -> ()
        | `Send ->
            Array.iter (fun f -> Conn.enqueue_frame e.e_conn f) frames;
            flush_entry t sh e
      end)
    recips

let shard_body t sh =
  let stopped = ref false in
  let process_cmds () =
    List.iter
      (fun cmd ->
        match cmd with
        | Attach e -> if not e.e_dead then attach_entry t sh e
        | Detach { e; farewell } ->
            (* Always answer: the tick domain is waiting on [Detached]
               to close the fd, whether or not we already went dead. *)
            if not e.e_dead then begin
              (* A farewell detach carries a final frame (an error
                 reply) the tick domain enqueued just before shutting
                 the conn down; give it one best-effort flush so the
                 peer sees the same farewell as at domains = 1. *)
              if farewell then ignore (Conn.flush ~farewell:true e.e_conn);
              e.e_dead <- true;
              account_tx sh e;
              Loop.remove_fd sh.loop (Conn.fd e.e_conn)
            end;
            emit t (Detached e)
        | Fanout { frames; recips } -> do_fanout t sh ~frames ~recips
        | Flush e -> flush_entry t sh e
        | Stop -> stopped := true)
      (take_cmds sh)
  in
  Loop.add_fd sh.loop sh.bell.rd
    ~readable:(fun () ->
      (* Drain-then-clear (see [doorbell]); the queue scan is the
         [process_cmds] at the top of the loop, after [Loop.step]
         returns. *)
      drain_fd sh.bell.rd;
      Atomic.set sh.bell.notified false)
    ~writable:ignore;
  while not !stopped do
    process_cmds ();
    if not !stopped then Loop.step ~max_wait:0.2 sh.loop
  done

(* ---------------- tick-domain API ---------------- *)

let create ~domains ~outbox_soft ~outbox_hard ~stall_strikes =
  if domains < 1 then invalid_arg "Shard.Pool: domains must be >= 1";
  let t =
    {
      shards =
        Array.init domains (fun index ->
            {
              index;
              bell = doorbell ();
              cmd_mu = Mutex.create ();
              cmds = Queue.create ();
              tx = Atomic.make 0;
              soft_skips = Atomic.make 0;
              (* Created here, on the spawning domain, so the sigpipe
                 tweak inside [Loop.create] never races. *)
              loop = Loop.create ();
              domain = None;
            });
      ev_bell = doorbell ();
      ev_mu = Mutex.create ();
      events = Queue.create ();
      outbox_soft;
      outbox_hard;
      stall_strikes;
      stopped = false;
    }
  in
  Array.iter (fun sh -> sh.domain <- Some (Domain.spawn (fun () -> shard_body t sh))) t.shards;
  t

let attach t ~shard ~conn =
  let sh = t.shards.(shard) in
  let e =
    {
      e_fd = int_of_fd (Conn.fd conn);
      e_conn = conn;
      e_shard = shard;
      e_strikes = 0;
      e_dead = false;
      e_last_tx = Conn.bytes_tx conn;
    }
  in
  push t sh (Attach e);
  e

let detach ?(farewell = false) t e = push t t.shards.(e.e_shard) (Detach { e; farewell })

let fanout t ~shard ~frames ~recips =
  if Array.length recips > 0 then push t t.shards.(shard) (Fanout { frames; recips })

let flush t e = push t t.shards.(e.e_shard) (Flush e)
let event_fd t = t.ev_bell.rd

let on_event_readable t =
  (* Drain-then-clear (see [doorbell]); the caller's [poll_events]
     right after is the queue scan that absorbs any emit that raced
     the drain. *)
  drain_fd t.ev_bell.rd;
  Atomic.set t.ev_bell.notified false

let poll_events t =
  Mutex.protect t.ev_mu (fun () ->
      let acc = ref [] in
      while not (Queue.is_empty t.events) do
        acc := Queue.pop t.events :: !acc
      done;
      List.rev !acc)

let tx_per_domain t = Array.map (fun sh -> Atomic.get sh.tx) t.shards
let soft_skips t = Array.fold_left (fun acc sh -> acc + Atomic.get sh.soft_skips) 0 t.shards

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun sh -> push t sh Stop) t.shards;
    Array.iter
      (fun sh ->
        (match sh.domain with Some d -> Domain.join d | None -> ());
        Loop.close sh.loop;
        close_db sh.bell)
      t.shards;
    close_db t.ev_bell
  end
