module Key = Gkm_crypto.Key
module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Loop = Gkm_netd.Loop
module Conn = Gkm_netd.Conn
module Client = Gkm_netd.Client

type verdict = { name : string; ok : bool; detail : string }

let pp_verdict fmt v =
  Format.fprintf fmt "%-24s %s  %s" v.name (if v.ok then "ok" else "FAIL") v.detail

let run_until loop ~timeout pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then pred ()
    else begin
      Loop.step ~max_wait:0.02 loop;
      go ()
    end
  in
  go ()

module Raw = struct
  type t = {
    loop : Loop.t;
    mutable conn : Conn.t option;
    mutable connected : bool;
    mutable received : Msg.t list;  (* newest first *)
  }

  let teardown t =
    match t.conn with
    | None -> ()
    | Some c ->
        Loop.remove_fd t.loop (Conn.fd c);
        Conn.close c;
        t.conn <- None

  let on_readable t () =
    match t.conn with
    | None -> ()
    | Some c -> (
        match Conn.on_readable c with
        | `Msgs ms -> t.received <- List.rev_append ms t.received
        | `Eof ms ->
            t.received <- List.rev_append ms t.received;
            teardown t
        | `Error (e, ms) ->
            Printf.eprintf "[raw] decode error: %s\n%!" (Frame.error_message e);
            t.received <- List.rev_append ms t.received;
            teardown t)

  let on_writable t () =
    match t.conn with
    | None -> ()
    | Some c -> (
        (if not t.connected then
           match Unix.getsockopt_error (Conn.fd c) with
           | None -> t.connected <- true
           | Some _ -> teardown t);
        match t.conn with
        | Some _ -> ( match Conn.write_through t.loop c with `Ok -> () | `Eof -> teardown t)
        | None -> ())

  let connect ~loop ~port =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
    | Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) -> ()
    | e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    let c = Conn.create fd in
    let t = { loop; conn = Some c; connected = false; received = [] } in
    Loop.add_fd loop fd ~readable:(on_readable t) ~writable:(on_writable t);
    Loop.set_write_interest loop fd true (* until the connect completes *);
    t

  let close t = teardown t
  let closed t = t.conn = None
  let msgs t = List.rev t.received

  let errors t =
    List.filter_map
      (function Msg.Error_msg { code; detail } -> Some (code, detail) | _ -> None)
      (msgs t)

  let send_frame t frame =
    match t.conn with
    | Some c ->
        Conn.enqueue_frame c frame;
        if t.connected then ignore (Conn.write_through t.loop c)
    | None -> ()

  let send t m = send_frame t (Frame.encode m)

  let await t ~timeout pick =
    let found = ref None in
    let check () =
      (if !found = None then
         match List.find_map pick (msgs t) with
         | Some _ as v -> found := v
         | None -> ());
      !found <> None || closed t
    in
    ignore (run_until t.loop ~timeout check);
    (* one more scan: messages may have landed on the closing read *)
    ignore (check ());
    !found

  let join t ~timeout =
    send t (Msg.Join { cls = `Long; loss = 0.0 });
    await t ~timeout (function
      | Msg.Resync { member; epoch; path = (_, k) :: _; ticket; _ } ->
          Some (member, epoch, k, ticket)
      | _ -> None)
end

(* ---------------- well-behaved cohorts ---------------- *)

let spawn_clients ~loop ~port ~n ?(loss = 0.0) ?drop ?mcast ?(mcast_fault = Gkm_net.Netem.none)
    ?(seed = 7) () =
  List.init n (fun i ->
      Client.connect ~loop
        {
          (Client.config ~port) with
          loss;
          drop;
          seed = seed + i;
          mcast;
          mcast_fault;
        })

let await_members ~loop ~timeout ~name clients =
  let total = List.length clients in
  if run_until loop ~timeout (fun () -> List.for_all Client.is_member clients) then
    { name; ok = true; detail = Printf.sprintf "%d/%d admitted" total total }
  else
    let n = List.length (List.filter Client.is_member clients) in
    let err =
      match List.find_map Client.last_error clients with Some e -> "; error: " ^ e | None -> ""
    in
    { name; ok = false; detail = Printf.sprintf "only %d/%d admitted%s" n total err }

let latest_dek c =
  match Client.dek_trace c with
  | [] -> None
  | l -> Some (List.fold_left (fun _ x -> x) (List.hd l) l)

let await_convergence ~loop ~timeout ?(min_rekey = 1) ~name clients =
  let total = List.length clients in
  (* Converged = an instant where every client's newest DEK belongs to
     the same rekey (>= min_rekey). Rekeys are spaced a full interval
     apart, so such an instant recurs after every tick once the whole
     cohort keeps up. *)
  let aligned () =
    match List.map latest_dek clients with
    | [] -> false
    | Some (r0, _) :: rest when r0 >= min_rekey ->
        List.for_all (function Some (r, _) -> r = r0 | None -> false) rest
    | _ -> false
  in
  if not (run_until loop ~timeout aligned) then
    let pp = function
      | Some (r, _) -> string_of_int r
      | None -> "-"
    in
    {
      name;
      ok = false;
      detail =
        Printf.sprintf "no aligned rekey >= %d across %d clients (at %s)" min_rekey total
          (String.concat "," (List.map (fun c -> pp (latest_dek c)) clients));
    }
  else
    let fps = List.filter_map (fun c -> Option.map snd (latest_dek c)) clients in
    let r0 = match latest_dek (List.hd clients) with Some (r, _) -> r | None -> -1 in
    match fps with
    | fp0 :: rest when List.for_all (String.equal fp0) rest ->
        {
          name;
          ok = true;
          detail = Printf.sprintf "%d clients converged on DEK %s at rekey %d" total fp0 r0;
        }
    | _ ->
        {
          name;
          ok = false;
          detail =
            Printf.sprintf "DEK split at rekey %d: {%s}" r0
              (String.concat "," (List.sort_uniq compare fps));
        }

(* A generation lost off the tail of a quiet period is undetectable —
   the next datagram is what reveals the gap — so convergence under a
   lossy data plane is only meaningful while membership keeps
   changing. Interleave short convergence polls with churners whose
   join/evict rekeys flush out any straggler's NACK recovery. *)
let converge_with_churn ~loop ~port ~timeout ?min_rekey ?(seed = 9000) ~name clients =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go i =
    let c = List.hd (spawn_clients ~loop ~port ~n:1 ~seed:(seed + i) ()) in
    ignore (run_until loop ~timeout:2.0 (fun () -> Client.is_member c));
    Client.kill c;
    let left = deadline -. Unix.gettimeofday () in
    let v =
      await_convergence ~loop ~timeout:(Float.min 2.0 (Float.max 0.2 left)) ?min_rekey ~name
        clients
    in
    if v.ok || Unix.gettimeofday () >= deadline then v else go (i + 1)
  in
  go 0

(* Reorder + duplication cohort: members whose receive path shuffles
   and duplicates datagrams (when [mcast] is given) must still track
   the herd — duplicates die in the per-sender replay windows and
   reordered records are verified per-record, so neither fault is
   allowed to escalate to a resync (a NACK is fine — a reordered
   future-epoch datagram looks like a gap until its predecessor
   lands moments later). Without [mcast] the
   same cohort runs shimless over TCP and serves as the ordered
   transport baseline, keeping the verdict comparable across the
   sweep's tcp and udp cases. *)
let reorder_dup ~loop ~port ?mcast ?(seed = 4000) ~timeout () =
  let name = "reorder-dup" in
  let fault = Gkm_net.Netem.cfg ~reorder:0.35 ~dup:0.6 () in
  let clients = spawn_clients ~loop ~port ~n:4 ?mcast ~mcast_fault:fault ~seed () in
  let finish v =
    List.iter Client.kill clients;
    v
  in
  let admitted = await_members ~loop ~timeout ~name clients in
  if not admitted.ok then finish { admitted with detail = "admission: " ^ admitted.detail }
  else begin
    (* The server only seals fresh generations on membership-change
       ticks, so drive a little churn to keep datagrams flowing
       through the faulty receive shims. *)
    for i = 0 to 1 do
      let c = List.hd (spawn_clients ~loop ~port ~n:1 ~seed:(seed + 100 + i) ()) in
      ignore (run_until loop ~timeout (fun () -> Client.is_member c));
      Client.kill c
    done;
    let conv = await_convergence ~loop ~timeout ~min_rekey:1 ~name clients in
    if not conv.ok then finish conv
    else if mcast = None then finish { conv with detail = conv.detail ^ " (tcp baseline)" }
    else begin
      let rx = List.map Client.mcast_datagrams_rx clients in
      (* A duplicated rekey datagram is absorbed one of two ways: by
         the replay window if its generation is still assembling, or
         as a stale-auth drop once the first copy has already rotated
         the sink past it. Either way it must leave a trace. *)
      let dups =
        List.fold_left
          (fun a c -> a + Client.replays_dropped c + Client.auth_dropped c)
          0 clients
      in
      let nacks = List.fold_left (fun a c -> a + Client.nacks_sent c) 0 clients in
      let resyncs = List.fold_left (fun a c -> a + Client.resyncs c) 0 clients in
      let deaf = List.exists (fun n -> n = 0) rx in
      let ok = (not deaf) && dups > 0 && resyncs = 0 in
      finish
        {
          name;
          ok;
          detail =
            (if ok then
               Printf.sprintf "%s; rx={%s} dgrams, %d duplicates absorbed, %d NACKs, 0 resyncs"
                 conv.detail
                 (String.concat "," (List.map string_of_int rx))
                 dups nacks
             else
               Printf.sprintf
                 "rx={%s} dgrams (want all > 0), dups absorbed=%d (want > 0), resyncs=%d \
                  (want 0)"
                 (String.concat "," (List.map string_of_int rx))
                 dups resyncs);
        }
    end
  end

(* One probe per side of the server's version: a JOIN whose frame
   header says the version before it, and one that says the version
   after. Each must draw ERR err_version, and then the close. *)
let version_refused ~loop ~port ~timeout =
  let name = "version-refused" in
  let probe version =
    let r = Raw.connect ~loop ~port in
    Raw.send_frame r (Frame.encode ~version (Msg.Join { cls = `Long; loss = 0.0 }));
    let got =
      Raw.await r ~timeout (function
        | Msg.Error_msg { code; detail } -> Some (code, detail)
        | _ -> None)
    in
    let closed = run_until loop ~timeout (fun () -> Raw.closed r) in
    Raw.close r;
    match got with
    | Some (code, _) when code = Msg.err_version && closed -> None
    | Some (code, _) when code = Msg.err_version ->
        Some (Printf.sprintf "v%d: no close after the refusal" version)
    | Some (code, d) -> Some (Printf.sprintf "v%d refused with code %d (%s)" version code d)
    | None -> Some (Printf.sprintf "v%d: no refusal before timeout" version)
  in
  match List.find_map probe [ Msg.version - 1; Msg.version + 1 ] with
  | None -> { name; ok = true; detail = "frames of another wire version refused with err_version" }
  | Some detail -> { name; ok = false; detail }

(* ---------------- hostile cohorts ---------------- *)

(* The highest rekey number the wire can carry: no server of a test
   run reaches it, so a NACK for it always misses the history. *)
let never_issued = 0x7FFF_FFFF

let count_resyncs r =
  List.length (List.filter (function Msg.Resync _ -> true | _ -> false) (Raw.msgs r))

let nack_flood ~loop ~port ~budget ~timeout =
  let name = "nack-flood" in
  let r = Raw.connect ~loop ~port in
  match Raw.join r ~timeout with
  | None ->
      Raw.close r;
      { name; ok = false; detail = "no admission" }
  | Some _ ->
      (* Every NACK for a rekey that never existed misses the
         retransmission history and asks for a full recovery resync —
         the amplification the budget must cap. Volley in lockstep (one
         NACK, await its RESYNC or ERROR) so no NACK is in flight when
         the denial closes the socket — a burst would race the close
         into an RST that discards the very farewell we are asserting.
         The admitting RESYNC is not one of them. *)
      let granted () = count_resyncs r - 1 in
      let replies () = granted () + List.length (Raw.errors r) in
      let rec volley sent =
        if (not (Raw.closed r)) && sent < budget + 8 then begin
          Raw.send r (Msg.Nack { rekey_no = never_issued; seqs = [] });
          let before = replies () in
          ignore (run_until loop ~timeout (fun () -> Raw.closed r || replies () > before));
          volley (sent + 1)
        end
      in
      volley 0;
      let dropped = run_until loop ~timeout (fun () -> Raw.closed r) in
      let resyncs = granted () in
      let denial = List.exists (fun (code, _) -> code = Msg.err_protocol) (Raw.errors r) in
      Raw.close r;
      let detail =
        Printf.sprintf "%d resyncs granted (budget %d), denial=%b, dropped=%b" resyncs budget
          denial dropped
      in
      { name; ok = dropped && denial && resyncs <= budget && resyncs > 0; detail }

let evictee_lockout ~loop ~port ~timeout =
  let name = "evictee-lockout" in
  let fail detail = { name; ok = false; detail } in
  let r = Raw.connect ~loop ~port in
  match Raw.join r ~timeout with
  | None ->
      Raw.close r;
      fail "no admission"
  | Some (_, _, _, ticket) when Bytes.length ticket = 0 ->
      Raw.close r;
      fail "no ticket issued"
  | Some (member, epoch, key, ticket) -> (
      Raw.send r (Msg.Leave { member });
      (* ... and keep transmitting into the teardown. *)
      for _ = 1 to 4 do
        Raw.send r (Msg.Nack { rekey_no = never_issued; seqs = [] })
      done;
      let went_down = run_until loop ~timeout (fun () -> Raw.closed r) in
      if not went_down then begin
        Raw.close r;
        fail "server kept the leaver's connection"
      end
      else
        (* Lockout probe 1: the dead ticket. *)
        let r2 = Raw.connect ~loop ~port in
        Raw.send r2 (Msg.Rejoin { have_epoch = epoch; have_state = true; ticket });
        let e1 =
          Raw.await r2 ~timeout (function Msg.Error_msg { code; _ } -> Some code | _ -> None)
        in
        match e1 with
        | Some code when code = Msg.err_evicted ->
            (* Lockout probe 2: a correctly authenticated RESYNC_REQ —
               the member is gone, so even a valid HMAC must be
               refused. *)
            Raw.send r2
              (Msg.Resync_req { member; epoch; auth = Frame.resync_auth ~key ~member ~epoch });
            let e2 =
              Raw.await r2 ~timeout (fun m ->
                  match m with
                  | Msg.Error_msg { code; _ } when code <> Msg.err_evicted -> Some code
                  | _ -> None)
            in
            Raw.close r2;
            if e2 = Some Msg.err_auth then
              { name; ok = true; detail = "ticket and authenticated resync both locked out" }
            else
              fail
                (Printf.sprintf "resync after leave: expected err_auth, got %s (closed=%b) [%s]"
                   (match e2 with Some c -> string_of_int c | None -> "nothing")
                   (Raw.closed r2)
                   (String.concat ","
                      (List.map (fun m -> Format.asprintf "%a" Msg.pp_kind m) (Raw.msgs r2))))
        | Some code ->
            Raw.close r2;
            fail (Printf.sprintf "rejoin after leave: expected err_evicted, got %d" code)
        | None ->
            Raw.close r2;
            fail "rejoin after leave: no reply")

let ticket_replay ~loop ~port ~timeout =
  let name = "ticket-replay" in
  let fail detail = { name; ok = false; detail } in
  let a = Raw.connect ~loop ~port in
  match Raw.join a ~timeout with
  | None ->
      Raw.close a;
      fail "no admission"
  | Some (_, _, _, ticket) when Bytes.length ticket = 0 ->
      Raw.close a;
      fail "no ticket issued"
  | Some (member, issued_epoch, _, ticket) ->
      let rejoin conn =
        Raw.send conn (Msg.Rejoin { have_epoch = issued_epoch; have_state = false; ticket });
        Raw.await conn ~timeout (function Msg.Rejoin_ack { member = m; _ } -> Some m | _ -> None)
      in
      let b = Raw.connect ~loop ~port in
      let replay1 = rejoin b in
      (* Bearer semantics: the replay re-binds the member and the
         previous binding dies. *)
      let a_died = run_until loop ~timeout (fun () -> Raw.closed a) in
      let c = Raw.connect ~loop ~port in
      let replay2 = rejoin c in
      let b_died = run_until loop ~timeout (fun () -> Raw.closed b) in
      (* A corrupted ticket must be refused softly: same socket stays
         up and can enter as a brand-new member. *)
      let d = Raw.connect ~loop ~port in
      let soft =
        let bad = Bytes.copy ticket in
        let i = Bytes.length bad / 2 in
        Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x41));
        Raw.send d (Msg.Rejoin { have_epoch = issued_epoch; have_state = false; ticket = bad });
        match
          Raw.await d ~timeout (function Msg.Error_msg { code; _ } -> Some code | _ -> None)
        with
        | Some code when code = Msg.err_ticket && not (Raw.closed d) -> (
            match Raw.join d ~timeout with
            | Some (fresh, _, _, _) when fresh <> member -> { name; ok = true; detail = "" }
            | Some (fresh, _, _, _) -> fail (Printf.sprintf "fresh join reused member id %d" fresh)
            | None -> fail "no admission after soft ticket rejection")
        | Some code -> fail (Printf.sprintf "corrupt ticket: expected err_ticket, got %d" code)
        | None -> fail "corrupt ticket: no reply"
      in
      List.iter Raw.close [ a; b; c; d ];
      let ok = replay1 = Some member && replay2 = Some member && a_died && b_died && soft.ok in
      if ok then
        {
          name;
          ok = true;
          detail =
            Printf.sprintf
              "2 replays re-bound member %d (old conns dropped); corrupt ticket soft-refused"
              member;
        }
      else if not soft.ok then soft
      else
        fail
          (Printf.sprintf "replay1=%s replay2=%s a_died=%b b_died=%b"
             (match replay1 with Some m -> string_of_int m | None -> "-")
             (match replay2 with Some m -> string_of_int m | None -> "-")
             a_died b_died)

module Private = struct
  module Raw = Raw
end
