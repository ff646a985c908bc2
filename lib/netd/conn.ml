module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg

(* An outbox entry may share its [buf] with every other connection the
   frame was fanned out to; only [off] is per-connection. *)
type out_entry = { buf : bytes; mutable off : int }

(* One owner at a time touches a conn: the domain whose loop polls the
   fd, or a fan-out lane while that owner waits on the lane join (the
   join's mutex is the happens-before edge both ways). *)
type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  outq : out_entry Queue.t;
  mutable out_bytes : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable closed : bool;
}

(* One read buffer per domain, not per process: loops on different
   domains must not share scratch space. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    dec = Frame.decoder ();
    outq = Queue.create ();
    out_bytes = 0;
    bytes_rx = 0;
    bytes_tx = 0;
    closed = false;
  }

let fd t = t.fd
let out_bytes t = t.out_bytes
let closed t = t.closed
let bytes_rx t = t.bytes_rx
let bytes_tx t = t.bytes_tx

let close t =
  if not t.closed then begin
    t.closed <- true;
    Queue.clear t.outq;
    t.out_bytes <- 0;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let enqueue_frame t buf =
  if not t.closed then begin
    Queue.add { buf; off = 0 } t.outq;
    t.out_bytes <- t.out_bytes + Bytes.length buf
  end

let flush t =
  let result = ref `Ok and continue = ref true in
  while !continue do
    if t.closed || Queue.is_empty t.outq then continue := false
    else begin
      let e = Queue.peek t.outq in
      let len = Bytes.length e.buf - e.off in
      match Unix.write t.fd e.buf e.off len with
      | n ->
          t.out_bytes <- t.out_bytes - n;
          t.bytes_tx <- t.bytes_tx + n;
          if n = len then ignore (Queue.pop t.outq)
          else begin
            e.off <- e.off + n;
            continue := false
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception
          Unix.Unix_error ((EPIPE | ECONNRESET | ECONNREFUSED | ENOTCONN | EBADF), _, _) ->
          result := `Eof;
          continue := false
    end
  done;
  !result

(* Write interest stays armed while output is stuck behind a full
   socket, and also after [`Eof]: the writable handler then meets the
   dead peer on the loop's own dispatch, never inside the caller that
   queued the frame (which may be iterating the very table a drop
   would edit). A closed fd is left alone — its number may already
   belong to another registration. *)
let write_through loop t =
  let r = flush t in
  if not t.closed then Loop.set_write_interest loop t.fd (r = `Eof || t.out_bytes > 0);
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
        msgs := m :: !msgs;
        drain ()
    | Ok None ->
        if !eof || !io_err then `Eof (List.rev !msgs) else `Msgs (List.rev !msgs)
    | Error e -> `Error (e, List.rev !msgs)
  in
  drain ()
