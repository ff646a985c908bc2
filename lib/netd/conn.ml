module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Metrics = Gkm_obs.Metrics
module Obs = Gkm_obs.Obs

let m_bytes_rx = Metrics.Counter.v "wire.bytes_rx"
let m_bytes_tx = Metrics.Counter.v "wire.bytes_tx"
let m_frames_rx = Metrics.Counter.v "wire.frames_rx"
let m_frames_tx = Metrics.Counter.v "wire.frames_tx"
let m_decode_errors = Metrics.Counter.v "wire.decode_errors"

(* An outbox entry may share its [buf] with every other connection the
   frame was fanned out to; only [off] is per-connection. *)
type out_entry = { buf : bytes; mutable off : int }

(* Threading: the write side (outq, out_bytes, closed, fd_closed) is
   guarded by [mu] because a sharded server enqueues unicast replies
   from the tick domain while the owning shard domain flushes. The
   read side (dec, bytes_rx) is single-owner — whichever domain polls
   the fd — and handoff between owners goes through a mutex-guarded
   command queue, which provides the happens-before edge.
   [bytes_rx]/[bytes_tx] accessors read without the lock: immediate
   int fields cannot tear, stats tolerate staleness. *)
type t = {
  fd : Unix.file_descr;
  mu : Mutex.t;
  dec : Frame.decoder;
  outq : out_entry Queue.t;
  mutable out_bytes : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable closed : bool;
  mutable fd_closed : bool;
}

(* One read buffer per domain, not per process: concurrent shard loops
   must not share scratch space. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let create ?max_frame fd =
  Unix.set_nonblock fd;
  {
    fd;
    mu = Mutex.create ();
    dec = Frame.decoder ?max_frame ();
    outq = Queue.create ();
    out_bytes = 0;
    bytes_rx = 0;
    bytes_tx = 0;
    closed = false;
    fd_closed = false;
  }

let fd t = t.fd
let out_bytes t = Mutex.protect t.mu (fun () -> t.out_bytes)
let closed t = t.closed
let bytes_rx t = t.bytes_rx
let bytes_tx t = t.bytes_tx

(* Pending output is kept across [shutdown] — a detaching shard may
   still deliver it as a farewell ([flush ~farewell:true]) — and only
   discarded once the fd is closed and no flush can touch it again. *)
let shutdown t = Mutex.protect t.mu (fun () -> t.closed <- true)

let close_fd t =
  Mutex.protect t.mu (fun () ->
      if not t.fd_closed then begin
        t.fd_closed <- true;
        Queue.clear t.outq;
        t.out_bytes <- 0;
        (try Unix.close t.fd with Unix.Unix_error _ -> ())
      end)

let close t =
  shutdown t;
  close_fd t

let enqueue_frame t buf =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        Queue.add { buf; off = 0 } t.outq;
        t.out_bytes <- t.out_bytes + Bytes.length buf;
        if Obs.enabled () then Metrics.Counter.incr m_frames_tx
      end)

let flush ?(farewell = false) t =
  Mutex.protect t.mu (fun () ->
      let result = ref `Ok and continue = ref true in
      while !continue do
        if (t.closed && not farewell) || t.fd_closed || Queue.is_empty t.outq then
          continue := false
        else begin
          let e = Queue.peek t.outq in
          let len = Bytes.length e.buf - e.off in
          match Unix.write t.fd e.buf e.off len with
          | n ->
              t.out_bytes <- t.out_bytes - n;
              t.bytes_tx <- t.bytes_tx + n;
              if Obs.enabled () then Metrics.Counter.add m_bytes_tx n;
              if n = len then ignore (Queue.pop t.outq)
              else begin
                e.off <- e.off + n;
                continue := false
              end
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | exception
              Unix.Unix_error ((EPIPE | ECONNRESET | ECONNREFUSED | ENOTCONN | EBADF), _, _)
            ->
              result := `Eof;
              continue := false
        end
      done;
      !result)

(* Write interest stays armed while output is stuck behind a full
   socket, and also after [`Eof]: the writable handler then meets the
   dead peer on the loop's own dispatch, never inside the caller that
   queued the frame (which may be iterating the very table a drop
   would edit). A closed fd is left alone — its number may already
   belong to another registration. The unlocked flag reads are safe:
   only the caller's own domain closes an fd it polls, and a stale
   [closed] at worst arms interest once more, which the next call
   clears. *)
let write_through loop t =
  let r = flush t in
  if not t.fd_closed then
    Loop.set_write_interest loop t.fd (r = `Eof || ((not t.closed) && out_bytes t > 0));
  r

(* Drain the socket into the frame decoder, then surface every
   complete message. Returns [`Eof] on orderly close or reset,
   [`Error] when the stream is corrupt (the connection must be
   dropped), otherwise the decoded messages in arrival order. *)
let on_readable t =
  let scratch = Domain.DLS.get scratch_key in
  let eof = ref false and io_err = ref false in
  let continue = ref true in
  while !continue do
    match Unix.read t.fd scratch 0 (Bytes.length scratch) with
    | 0 ->
        eof := true;
        continue := false
    | n ->
        t.bytes_rx <- t.bytes_rx + n;
        if Obs.enabled () then Metrics.Counter.add m_bytes_rx n;
        Frame.feed t.dec scratch 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | ECONNREFUSED | EPIPE | ENOTCONN | EBADF), _, _)
      ->
        io_err := true;
        continue := false
  done;
  let msgs = ref [] in
  let rec drain () =
    match Frame.next t.dec with
    | Ok (Some m) ->
        if Obs.enabled () then Metrics.Counter.incr m_frames_rx;
        msgs := m :: !msgs;
        drain ()
    | Ok None ->
        if !eof || !io_err then `Eof (List.rev !msgs) else `Msgs (List.rev !msgs)
    | Error e ->
        if Obs.enabled () then Metrics.Counter.incr m_decode_errors;
        `Error (e, List.rev !msgs)
  in
  drain ()
