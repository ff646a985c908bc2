module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg

(* One owner at a time touches a conn: the domain whose loop polls the
   fd, or a fan-out lane while that owner waits on the lane join (the
   join's mutex is the happens-before edge both ways). *)
type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable ring : bytes array;
      (* queued frames, oldest at [head]: a frame may be shared with
         every other connection it was fanned out to, so only [off], the
         bytes of the oldest already written, is per-connection *)
  mutable head : int;
  mutable queued : int;
  mutable off : int;
  mutable out_bytes : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable closed : bool;
}

(* [writev fd ring head n off] is writev(2) of the [n] queued frames
   from ring slot [head] on, skipping [off] bytes of the first. No
   user-space copy: the kernel gathers straight from the frames, so a
   flush costs one syscall whatever the frame count up to [max_iov]
   (the stub's iovec array). Raises [Unix.Unix_error]. *)
external writev : Unix.file_descr -> bytes array -> int -> int -> int -> int = "gkm_netd_writev"

let max_iov = 64

(* One read buffer per domain, not per process: loops on different
   domains must not share scratch space. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    dec = Frame.decoder ();
    ring = Array.make 4 Bytes.empty;
    head = 0;
    queued = 0;
    off = 0;
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
    t.ring <- [||];
    t.queued <- 0;
    t.out_bytes <- 0;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let enqueue_frame t buf =
  if not t.closed then begin
    let cap = Array.length t.ring in
    if t.queued = cap then begin
      let ring = Array.make (2 * cap) Bytes.empty in
      for i = 0 to cap - 1 do
        ring.(i) <- t.ring.((t.head + i) mod cap)
      done;
      t.ring <- ring;
      t.head <- 0
    end;
    t.ring.((t.head + t.queued) mod Array.length t.ring) <- buf;
    t.queued <- t.queued + 1;
    t.out_bytes <- t.out_bytes + Bytes.length buf
  end

(* Retire the [n] bytes a write took off the front of the queue,
   releasing every frame it finished. *)
let advance t n =
  t.out_bytes <- t.out_bytes - n;
  t.bytes_tx <- t.bytes_tx + n;
  let n = ref (n + t.off) in
  while t.queued > 0 && !n >= Bytes.length t.ring.(t.head) do
    n := !n - Bytes.length t.ring.(t.head);
    t.ring.(t.head) <- Bytes.empty;
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.queued <- t.queued - 1
  done;
  t.off <- !n

let flush t =
  let result = ref `Ok and continue = ref true in
  while !continue do
    if t.closed || t.queued = 0 then continue := false
    else
      let batch = min t.queued max_iov in
      match writev t.fd t.ring t.head batch t.off with
      | n ->
          let before = t.queued in
          advance t n;
          (* A short write means the socket is full. *)
          continue := before - t.queued = batch
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception
          Unix.Unix_error ((EPIPE | ECONNRESET | ECONNREFUSED | ENOTCONN | EBADF), _, _) ->
          result := `Eof;
          continue := false
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

(* Read the socket into the frame decoder, then surface every
   complete message. Returns [`Eof] on orderly close or reset,
   [`Error] when the stream is corrupt (the connection must be
   dropped), otherwise the decoded messages in arrival order.

   A read shorter than the scratch buffer ends the call: the socket
   is most likely empty, and a second read only to meet EAGAIN is a
   wasted syscall on every message. The loop is level-triggered, so
   bytes that arrived since, and the end of stream, are reported on
   its next step. *)
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
        Frame.feed t.dec scratch 0 n;
        continue := n = Bytes.length scratch
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
