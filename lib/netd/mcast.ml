external mcast_join : Unix.file_descr -> string -> string -> string = "gkm_netd_mcast_join"

external mcast_sender_opts : Unix.file_descr -> string -> int -> bool -> string
  = "gkm_netd_mcast_sender_opts"

type group = { addr : string; port : int; iface : string; ttl : int; loopback : bool }

let default_group =
  { addr = "239.255.77.7"; port = 7677; iface = "127.0.0.1"; ttl = 1; loopback = true }

let group_of_string s =
  if s = "" then Ok default_group
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "%S: expected ADDR:PORT" s)
    | Some i -> (
        let addr = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | None -> Error (Printf.sprintf "%S: bad port %S" s port_s)
        | Some port when port < 1 || port > 0xFFFF ->
            Error (Printf.sprintf "%S: port out of range" s)
        | Some port -> (
            match Unix.inet_addr_of_string addr with
            | exception Failure _ -> Error (Printf.sprintf "%S: bad group address %S" s addr)
            | _ -> Ok { default_group with addr; port }))

let group_to_string g = Printf.sprintf "%s:%d" g.addr g.port

let ephemeral_group ~seed =
  let x = (seed * 2654435761) lxor (Unix.getpid () * 40503) in
  let x = x land max_int in
  {
    default_group with
    addr = Printf.sprintf "239.255.%d.%d" (64 + (x lsr 8 mod 128)) (1 + (x mod 254));
    port = 0xC000 + (x mod 0x3000);
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Send path *)

type sender = { s_fd : Unix.file_descr; s_dest : Unix.sockaddr; mutable s_closed : bool }

let create_sender group =
  match Unix.socket PF_INET SOCK_DGRAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  | fd -> (
      match mcast_sender_opts fd group.iface group.ttl group.loopback with
      | "" ->
          Ok
            {
              s_fd = fd;
              s_dest = Unix.ADDR_INET (Unix.inet_addr_of_string group.addr, group.port);
              s_closed = false;
            }
      | err ->
          close_quietly fd;
          Error (Printf.sprintf "multicast sender options: %s" err))

let send t d =
  if not t.s_closed then
    match Unix.sendto t.s_fd d 0 (Bytes.length d) [] t.s_dest with
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ()

let close_sender t =
  if not t.s_closed then begin
    t.s_closed <- true;
    close_quietly t.s_fd
  end

(* ------------------------------------------------------------------ *)
(* Receive path *)

type sub = { r_fd : Unix.file_descr; mutable r_closed : bool }

(* One receive buffer per domain, shared by every subscriber on it:
   [recv] copies the datagram out before returning, and concurrent
   domains must not share scratch space. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let subscribe group =
  match Unix.socket PF_INET SOCK_DGRAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  | fd -> (
      let cleanup e =
        close_quietly fd;
        Error e
      in
      try
        Unix.setsockopt fd SO_REUSEADDR true;
        (try Unix.setsockopt fd SO_REUSEPORT true with Unix.Unix_error _ -> ());
        (* Bind the group address itself so the kernel filters by
           destination: two harnesses on one port but different groups
           never see each other. Kernels that refuse a multicast bind
           get INADDR_ANY plus the membership filter. *)
        (try Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string group.addr, group.port))
         with Unix.Unix_error ((EADDRNOTAVAIL | EINVAL), _, _) ->
           Unix.bind fd (ADDR_INET (Unix.inet_addr_any, group.port)));
        match mcast_join fd group.addr group.iface with
        | "" ->
            Unix.set_nonblock fd;
            Ok { r_fd = fd; r_closed = false }
        | err -> cleanup (Printf.sprintf "multicast group join: %s" err)
      with Unix.Unix_error (e, fn, _) ->
        cleanup (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let sub_fd t = t.r_fd

let recv t =
  if t.r_closed then None
  else
    let buf = Domain.DLS.get scratch_key in
    (* A datagram socket has no end of stream: 0 bytes is an empty
       datagram, which the caller must see (and count as undecodable)
       rather than take for a dry socket. *)
    match Unix.recv t.r_fd buf 0 (Bytes.length buf) [] with
    | n -> Some (Bytes.sub buf 0 n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNREFUSED), _, _) -> None

let close_sub t =
  if not t.r_closed then begin
    t.r_closed <- true;
    close_quietly t.r_fd
  end

(* ------------------------------------------------------------------ *)
(* Availability probe *)

let probe () =
  let g = ephemeral_group ~seed:0x9E3779B9 in
  match subscribe g with
  | Error _ -> false
  | Ok sub -> (
      match create_sender g with
      | Error _ ->
          close_sub sub;
          false
      | Ok sender ->
          let payload = Bytes.of_string "gkm-mcast-probe" in
          send sender payload;
          let deadline = Unix.gettimeofday () +. 0.5 in
          let rec wait () =
            match Unix.select [ sub_fd sub ] [] [] 0.05 with
            | [ _ ], _, _ -> (
                match recv sub with
                | Some d when Bytes.equal d payload -> true
                | _ -> if Unix.gettimeofday () < deadline then wait () else false)
            | _ -> if Unix.gettimeofday () < deadline then wait () else false
            | exception Unix.Unix_error (EINTR, _, _) ->
                if Unix.gettimeofday () < deadline then wait () else false
          in
          let ok = wait () in
          close_sub sub;
          close_sender sender;
          ok)

let memo = ref None

let available () =
  match !memo with
  | Some v -> v
  | None ->
      let v = probe () in
      memo := Some v;
      v
