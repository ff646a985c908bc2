(* End-to-end tests: a real Gkm.Organization served over loopback TCP,
   with in-process clients on the same event loop. Every test drives
   churn, waits on observable state (never on sleeps alone), and diffs
   the DEK fingerprint traces: every (rekey_no, fp) a client recorded
   must match the server's record for that rekey_no. *)

module Loop = Gkm_netd.Loop
module Server = Gkm_netd.Server
module Client = Gkm_netd.Client
module Organization = Gkm.Organization
module Scheme = Gkm.Scheme
module Loss_model = Gkm_net.Loss_model
module Netem = Gkm_net.Netem
module Mcast = Gkm_netd.Mcast
module Msg = Gkm_wire.Msg
module Frame = Gkm_wire.Frame
module Packet = Gkm_transport.Packet
module Record = Gkm_record.Record
module Dek_log = Gkm_netd.Dek_log

let with_obs b f =
  let saved = Gkm_obs.Obs.enabled () in
  Gkm_obs.Obs.set_enabled b;
  Fun.protect ~finally:(fun () -> Gkm_obs.Obs.set_enabled saved) f

let cfg ?(tp = 0.02) ?(org = Organization.Scheme_cfg (Scheme.default_config Scheme.Tt))
    ?(capacity = 512) ?(outbox_soft = 256 * 1024) ?(outbox_hard = 1024 * 1024)
    ?(resync_grace = 50) ?sndbuf ?(domains = 1) ?(transport = Server.Tcp) () =
  {
    Server.default_config with
    port = 0;
    tp;
    org;
    capacity;
    outbox_soft;
    outbox_hard;
    resync_grace;
    sndbuf;
    domains;
    transport;
  }

let run_until ?(timeout = 30.0) loop cond =
  let deadline = Unix.gettimeofday () +. timeout in
  Loop.run loop ~until:(fun () -> cond () || Unix.gettimeofday () > deadline);
  if not (cond ()) then Alcotest.fail "run_until: condition not reached before timeout"

(* Force one rekey: enqueue churn (a throwaway join+leave via a fresh
   client would be slow — use direct churn through a client join), then
   wait for the server's rekey_no to advance. *)
let server_trace_tbl srv =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (no, fp) -> Hashtbl.replace tbl no fp) (Server.dek_trace srv);
  tbl

let check_trace_list ~server_tbl name trace =
  List.iter
    (fun (no, fp) ->
      match Hashtbl.find_opt server_tbl no with
      | Some sfp ->
          Alcotest.(check string)
            (Printf.sprintf "%s: DEK at rekey %d" name no)
            sfp fp
      | None -> Alcotest.failf "%s: client saw rekey %d the server never recorded" name no)
    trace

let check_trace ~server_tbl name (c : Client.t) =
  check_trace_list ~server_tbl name (Client.dek_trace c)

(* A hand-driven peer on a blocking socket: [read_frame] returns its
   next frame, stepping [loop] (which runs the other end) meanwhile. *)
let read_frame loop dec fd =
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then Alcotest.fail "peer: no frame before timeout";
    match Frame.next dec with
    | Ok (Some m) -> m
    | Ok None ->
        Loop.step ~max_wait:0.005 loop;
        (match Unix.select [ fd ] [] [] 0.005 with
        | [ _ ], _, _ ->
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then Alcotest.fail "peer: eof";
            Frame.feed dec buf 0 n
        | _ -> ());
        go ()
    | Error e -> Alcotest.fail (Frame.error_message e)
  in
  go ()

let write_frame fd m =
  let b = Frame.encode m in
  ignore (Unix.write fd b 0 (Bytes.length b))

let test_smoke () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ()) in
  let clients =
    List.init 5 (fun i ->
        Client.connect ~loop { (Client.config ~port:(Server.port srv)) with seed = i })
  in
  run_until loop (fun () -> List.for_all Client.is_member clients);
  Alcotest.(check int) "all admitted" 5 (Server.org_size srv);
  (* churn from one client: leave, and a fresh join, forcing rekeys *)
  let rec churn n =
    if n > 0 then begin
      let c = Client.connect ~loop (Client.config ~port:(Server.port srv)) in
      run_until loop (fun () -> Client.is_member c);
      let target = Server.Private.epoch srv in
      Client.leave c;
      run_until loop (fun () -> Server.Private.epoch srv > target);
      churn (n - 1)
    end
  in
  churn 3;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) clients);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "client%d" i) c) clients;
  Server.stop srv

(* The acceptance scenario: 200 churning clients over 20+ rekey
   intervals; one client is killed mid-interval and recovers through
   its resumption ticket — REJOIN as its first frame, no RESYNC
   round trip; every survivor ends on the server's exact DEK
   sequence. *)
let test_churn_200 () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let mk i = Client.connect ~loop { (Client.config ~port) with seed = i } in
  let stable = Array.init 150 mk in
  run_until loop (fun () -> Array.for_all Client.is_member stable);
  let victim = stable.(0) in
  let churners = ref (List.init 50 (fun i -> mk (1000 + i))) in
  run_until loop (fun () -> List.for_all Client.is_member !churners);
  let intervals = ref 0 in
  let killed = ref false and recovered = ref false in
  while !intervals < 22 do
    (* churn: one leave + one join per interval *)
    (match !churners with
    | c :: rest ->
        Client.leave c;
        churners := rest @ [ mk (2000 + !intervals) ]
    | [] -> ());
    (if !intervals = 8 then begin
       Client.kill victim;
       killed := true
     end);
    (if !intervals = 12 then begin
       Client.reconnect victim;
       recovered := true
     end);
    let target = Server.Private.epoch srv in
    run_until loop (fun () -> Server.Private.epoch srv > target);
    incr intervals
  done;
  Alcotest.(check bool) "kill/reconnect exercised" true (!killed && !recovered);
  run_until loop (fun () -> List.for_all Client.is_member !churners);
  (* quiesce: trailing TT migrations keep producing rekeys for ~s_period
     intervals after the last join — wait until the epoch stops moving
     before sampling the rekey_no the survivors must catch up to *)
  let last_epoch = ref (-1) and since = ref (Unix.gettimeofday ()) in
  run_until ~timeout:60.0 loop (fun () ->
      let e = Server.Private.epoch srv in
      let now = Unix.gettimeofday () in
      if e <> !last_epoch then begin
        last_epoch := e;
        since := now;
        false
      end
      else now -. !since > 0.3);
  let last = Server.rekey_no srv in
  let survivors = Array.to_list stable @ !churners in
  run_until loop (fun () ->
      List.for_all (fun c -> Client.last_rekey c = last) survivors);
  Alcotest.(check bool) "20+ intervals" true (Server.rekey_no srv >= 20);
  Alcotest.(check bool) "victim rejoined by ticket" true (Client.rejoins victim >= 1);
  Alcotest.(check int) "victim never fell back to RESYNC" 0 (Client.resyncs victim);
  let s = Server.stats srv in
  Alcotest.(check bool) "server answered a rejoin" true (s.rejoins_0rtt + s.rejoins_full >= 1);
  Alcotest.(check bool) "tickets were issued" true (s.tickets_issued >= 1);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "survivor%d" i) c) survivors;
  (* the victim's trace must span both sides of the crash *)
  let vt = List.map fst (Client.dek_trace victim) in
  Alcotest.(check bool) "victim has pre-crash rekeys" true (List.exists (fun n -> n <= 8) vt);
  Alcotest.(check bool) "victim has post-resync rekeys" true
    (List.exists (fun n -> n > 12) vt);
  Server.stop srv

(* Simulated receive loss on REKEY frames: the client must fall back on
   NACK (and possibly RESYNC) yet still track the exact DEK
   sequence for every rekey it completes. *)
let test_lossy_client () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let lossy =
    Client.connect ~loop
      {
        (Client.config ~port) with
        drop = Some (Loss_model.bernoulli 0.3);
        seed = 42;
      }
  in
  let peers = List.init 10 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> List.for_all Client.is_member (lossy :: peers));
  (* Churn until the lossy client has completed 15 rekeys. A fixed
     number of pairs would not do: a RESYNC skips rekeys without
     completing them, and once the group stops rekeying nothing
     reveals a dropped final rekey over TCP, so no NACK would fetch
     it. Each pair drives one more rekey through the drop model. *)
  let goal = 15 and cap = 200 in
  let pairs = ref 0 in
  while Client.rekeys_completed lossy < goal && !pairs < cap do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 500 + !pairs } in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target);
    incr pairs
  done;
  if Client.rekeys_completed lossy < goal then
    Alcotest.failf "the lossy client completed %d rekeys (of %d) in %d join/leave pairs"
      (Client.rekeys_completed lossy) goal cap;
  (* the last rekey reaches the peers too before their traces are read *)
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) peers);
  Alcotest.(check bool) "the loss model actually dropped frames" true
    (Client.Private.frames_dropped lossy > 0);
  Alcotest.(check bool) "recovery traffic flowed" true
    (Client.nacks_sent lossy > 0 || Client.resyncs lossy > 0);
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "lossy" lossy;
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "peer%d" i) c) peers;
  Server.stop srv

(* A DEK can come back. Under TT, a tick whose only event is the last
   S member leaving promotes the L root's key to DEK again. Records
   sealed under the returning DEK must continue its sequence: a
   restart at 0 reuses (key, nonce) pairs in CTR mode, and a member
   that resyncs onto the returning DEK keeps its old replay window,
   so it would drop the restarted records as replays for good. The
   observer opens every record under the DEK it holds and keys it by
   (DEK, seq). *)
let test_recurring_dek_seq () =
  let org = Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 1 } in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org ()) in
  let port = Server.port srv in
  let seen = Hashtbl.create 64 and opened = ref 0 and reused = ref [] in
  let observe c ~epoch:_ ~seq ~ct =
    match Client.group_key c with
    | Some dek -> (
        let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:0) in
        match Record.Sink.open_ sink ~seq ct with
        | Ok _ ->
            incr opened;
            let fp = Gkm_crypto.Key.fingerprint dek in
            if Hashtbl.mem seen (fp, seq) then reused := (fp, seq) :: !reused;
            Hashtbl.replace seen (fp, seq) ()
        | Error _ -> ())
    | None -> ()
  in
  let members = List.init 4 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 4);
  let live = ref members in
  let settle () =
    run_until ~timeout:5.0 loop (fun () -> List.for_all Client.is_member !live);
    let last = Server.rekey_no srv in
    run_until ~timeout:5.0 loop (fun () ->
        List.for_all (fun c -> Client.last_rekey c = last) !live)
  in
  (* admit the four into S, then let them move to L *)
  Server.tick_now srv;
  settle ();
  Server.tick_now srv;
  settle ();
  let observer = List.hd members in
  Client.on_sealed observer (observe observer);
  for j = 1 to 14 do
    let joins = (Server.stats srv).Server.joins and leaves = (Server.stats srv).Server.leaves in
    let churner = Client.connect ~loop { (Client.config ~port) with seed = 100 + j } in
    run_until loop (fun () -> (Server.stats srv).Server.joins = joins + 1);
    Server.tick_now srv;
    live := churner :: !live;
    settle ();
    Client.leave churner;
    run_until loop (fun () -> (Server.stats srv).Server.leaves = leaves + 1);
    Server.tick_now srv;
    live := List.filter (fun c -> c != churner) !live;
    settle ()
  done;
  let fps = List.map snd (Server.dek_trace srv) in
  Alcotest.(check bool) "a DEK came back" true
    (List.length (List.sort_uniq compare fps) < List.length fps);
  Alcotest.(check bool) "the observer opened the fan-out" true (!opened >= 28);
  Alcotest.(check (list (pair string int64))) "no (DEK, seq) reused" [] !reused;
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "member%d" i) c) members;
  List.iter Client.kill members;
  Server.stop srv;
  Loop.close loop

(* A client that joins and then never reads again must hit the hard
   backpressure tier and be evicted — departed from the organization,
   not just disconnected. Runs both single-threaded ([domains = 1])
   and with fan-out lanes ([domains = 2]); either way the tick domain
   measures backpressure before anything is written. *)
let slow_eviction_scenario ~domains () =
  let loop = Loop.create () in
  let srv =
    Server.create ~loop
      (cfg ~tp:0.01 ~capacity:256 ~outbox_soft:2048 ~outbox_hard:8192 ~sndbuf:4096 ~domains ())
  in
  let port = Server.port srv in
  (* the stalled peer: a blocking socket speaking just enough protocol *)
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (* shrink the receive buffer BEFORE connect: the window is advertised
     at the handshake, and a large one would let the kernel absorb the
     whole fan-out without the server's outbox ever backing up *)
  (try Unix.setsockopt_int fd SO_RCVBUF 4096 with Unix.Unix_error _ -> ());
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  write_frame fd (Msg.Join { cls = `Long; loss = 0.0 });
  (* ...and from here on the peer never reads again. Keep the group
     busy so REKEY bytes pile up behind the dead kernel buffer. *)
  let active = List.init 20 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> List.for_all Client.is_member active);
  (* a rolling churner drives the rekey volume: join, wait for
     membership, leave, replace once closed — each cycle forces rekeys
     whose frames pile up behind the stalled peer's full kernel buffer
     until the soft tier's strike counter evicts it *)
  let i = ref 0 in
  let churner = ref (Client.connect ~loop { (Client.config ~port) with seed = 9000 }) in
  let drive_churn () =
    match Client.phase !churner with
    | Client.Member -> Client.leave !churner
    | Client.Closed ->
        incr i;
        churner := Client.connect ~loop { (Client.config ~port) with seed = 9000 + !i }
    | _ -> ()
  in
  run_until loop ~timeout:60.0 (fun () ->
      drive_churn ();
      (Server.stats srv).evictions_slow >= 1);
  Alcotest.(check bool) "soft tier engaged before eviction" true
    ((Server.stats srv).soft_skips >= 1);
  (* the evicted member must be gone from the organization: stop
     replacing the churner (a replacement registers before the old
     leave is processed, so the size would never dip) and let the last
     leave drain *)
  run_until loop (fun () ->
      (match Client.phase !churner with
      | Client.Member -> Client.leave !churner
      | _ -> ());
      Server.org_size srv <= List.length active);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check int) "tx_per_domain cell per writer domain"
    (if domains >= 2 then 1 + domains else 1)
    (Array.length (Server.tx_per_domain srv));
  Server.stop srv

let test_slow_client_eviction () = slow_eviction_scenario ~domains:1 ()
let test_sharded_slow_eviction () = slow_eviction_scenario ~domains:2 ()

(* Disconnected members that never resync depart after the grace
   window. *)
let test_grace_eviction () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~resync_grace:3 ()) in
  let port = Server.port srv in
  let doomed = Client.connect ~loop (Client.config ~port) in
  let peers = List.init 4 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> List.for_all Client.is_member (doomed :: peers));
  Alcotest.(check int) "all in" 5 (Server.org_size srv);
  Client.kill doomed;
  for _ = 1 to 6 do
    let c = Client.connect ~loop (Client.config ~port) in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target)
  done;
  run_until loop (fun () -> (Server.stats srv).evictions_grace >= 1);
  run_until loop (fun () -> Server.org_size srv = 4);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "peer%d" i) c) peers;
  Server.stop srv

(* The admitting RESYNC carries the member's first ticket: a fresh
   member already holds one when its first DEK lands, so a crash right
   after admission comes back by 0-RTT REJOIN — no full rejoin, no
   RESYNC. *)
let test_ticket_in_admission () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let peers =
    List.init 3 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i })
  in
  run_until loop (fun () -> List.for_all Client.is_member peers);
  let victim = Client.connect ~loop { (Client.config ~port) with seed = 7 } in
  let at_first_dek = ref None in
  Client.on_dek victim (fun ~rekey_no:_ ~fp:_ ->
      if !at_first_dek = None then
        at_first_dek := Some (Client.export_resumption victim <> None));
  run_until loop (fun () -> Client.is_member victim);
  Alcotest.(check (option bool)) "ticket held when the first DEK lands" (Some true) !at_first_dek;
  let pre_member = Client.member victim in
  Client.kill victim;
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  let s = Server.stats srv in
  Alcotest.(check int) "same member identity" pre_member (Client.member victim);
  Alcotest.(check int) "one ticket rejoin" 1 (Client.rejoins victim);
  Alcotest.(check int) "a 0-RTT delta rejoin" 1 s.rejoins_0rtt;
  Alcotest.(check int) "zero full rejoins" 0 s.rejoins_full;
  Alcotest.(check int) "zero RESYNCs sent" 0 (Client.resyncs victim);
  Alcotest.(check int) "zero RESYNCs served" 0 s.resyncs;
  Server.stop srv

(* Mid-interval kill in a quiet group: the reconnect must complete via
   the 0-RTT ticket path — delta keys, one round trip, ZERO full
   RESYNCs — and the victim must end on the server's DEK sequence. *)
let test_rejoin_0rtt () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let victim = Client.connect ~loop { (Client.config ~port) with seed = 7 } in
  let peers = List.init 5 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> List.for_all Client.is_member (victim :: peers));
  run_until loop (fun () -> Client.export_resumption victim <> None);
  let pre_member = Client.member victim in
  Client.kill victim;
  (* the group moves on while the victim is dark *)
  for i = 0 to 2 do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 600 + i } in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target)
  done;
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  Alcotest.(check bool) "recovered by ticket" true (Client.rejoins victim >= 1);
  Alcotest.(check int) "zero full RESYNCs" 0 (Client.resyncs victim);
  Alcotest.(check int) "same member identity" pre_member (Client.member victim);
  let s = Server.stats srv in
  Alcotest.(check bool) "server counted the rejoin" true (s.rejoins_0rtt + s.rejoins_full >= 1);
  Alcotest.(check int) "no RESYNC was served for the victim" 0 s.resyncs;
  (* ... and the rejoined client keeps tracking rekeys *)
  let c = Client.connect ~loop { (Client.config ~port) with seed = 700 } in
  run_until loop (fun () -> Client.is_member c);
  let target = Server.Private.epoch srv in
  Client.leave c;
  run_until loop (fun () -> Server.Private.epoch srv > target);
  let last = Server.rekey_no srv in
  run_until loop (fun () ->
      List.for_all (fun c -> Client.last_rekey c = last) (victim :: peers));
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "victim" victim;
  Server.stop srv

(* The reconnect storm: 100 TT members at tp 0.02 s, then 10 churned
   intervals of one join plus one leave. Each interval also crash-kills
   one stable member and reconnects it. With no faults every reconnect
   must be a 0-RTT delta rejoin: no full-path rejoin, no RESYNC, at
   every fan-out domain count.

   Two gates keep a full rejoin from being legitimate; only a leaf
   that moved since the victim's last epoch makes one. The victim is
   drained first (PING/PONG), so it has read everything the server
   sent it, a migration RESYNC included, before the kill. And each
   interval waits for the organization to settle: this interval's
   join and the previous churner's leave both consumed, and the join
   acknowledged. Otherwise a leave sent before admission degrades to
   a crash whose member lingers in the S-partition until a later
   migration, and the churn the test counts is not the churn that
   ran. *)
let storm_scenario ~domains =
  let n = 100 and intervals = 10 and tp = 0.02 in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp ~domains ()) in
  let port = Server.port srv in
  let stable =
    Array.init n (fun i -> Client.connect ~loop { (Client.config ~port) with seed = 1 + i })
  in
  let all_at_rekey () =
    let r = Server.rekey_no srv in
    Array.for_all (fun c -> Client.is_member c && Client.last_rekey c >= r) stable
  in
  (* No epoch movement for 10 ticks: the join storm's trailing TT
     migrations have drained. *)
  let quiesce () =
    let last = ref (-1) and since = ref (Unix.gettimeofday ()) in
    run_until loop (fun () ->
        let e = Server.Private.epoch srv and t = Unix.gettimeofday () in
        if e <> !last then begin
          last := e;
          since := t;
          false
        end
        else t -. !since > 10.0 *. tp)
  in
  run_until loop (fun () -> Array.for_all Client.is_member stable);
  quiesce ();
  let churner = ref None in
  for i = 0 to intervals - 1 do
    run_until loop all_at_rekey;
    let victim = stable.(i) in
    let killed = ref false in
    Client.drain victim (fun () ->
        Client.kill victim;
        killed := true);
    run_until loop (fun () -> !killed);
    Client.reconnect victim;
    run_until loop (fun () -> Array.for_all Client.is_member stable);
    let c = Client.connect ~loop { (Client.config ~port) with seed = 1 + n + i } in
    Option.iter Client.leave !churner;
    churner := Some c;
    let target = Server.Private.epoch srv in
    run_until loop (fun () ->
        Server.Private.epoch srv > target && Server.org_size srv = n + 1 && Client.is_member c)
  done;
  Option.iter Client.leave !churner;
  quiesce ();
  run_until loop all_at_rekey;
  let tag = Printf.sprintf "domains %d" domains in
  let s = Server.stats srv in
  Alcotest.(check int) (tag ^ ": every reconnect a 0-RTT rejoin") intervals s.rejoins_0rtt;
  Alcotest.(check int) (tag ^ ": no full rejoin") 0 s.rejoins_full;
  Alcotest.(check int) (tag ^ ": no RESYNC") 0 s.resyncs;
  let server_tbl = server_trace_tbl srv in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "%s: member%d never resynced" tag i)
        0 (Client.resyncs c);
      check_trace ~server_tbl (Printf.sprintf "%s: member%d" tag i) c)
    stable;
  Array.iter Client.kill stable;
  Server.stop srv;
  Loop.close loop

let test_reconnect_storm () = List.iter (fun domains -> storm_scenario ~domains) [ 1; 2; 4 ]

(* Eviction lockout: a departed member's ticket is dead. The REJOIN is
   refused with a soft error, and the same process re-enters only as a
   brand-new member with no claim to the old identity's keys. *)
let test_eviction_lockout () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let doomed = Client.connect ~loop { (Client.config ~port) with seed = 1 } in
  let peers = List.init 4 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = 10 + i }) in
  run_until loop (fun () -> List.for_all Client.is_member (doomed :: peers));
  run_until loop (fun () -> Client.export_resumption doomed <> None);
  let old_member = Client.member doomed in
  let blob =
    match Client.export_resumption doomed with
    | Some b -> b
    | None -> Alcotest.fail "no resumption state"
  in
  Client.leave doomed;
  run_until loop (fun () -> Client.phase doomed = Client.Closed);
  run_until loop (fun () -> Server.org_size srv = 4);
  (* a stale-ticket rejoin must NOT re-enter as the departed member *)
  let ghost = Client.connect ~loop { (Client.config ~port) with seed = 2; resume = Some blob } in
  run_until loop (fun () -> Client.is_member ghost);
  Alcotest.(check bool) "ticket was refused" true ((Server.stats srv).ticket_rejects >= 1);
  Alcotest.(check int) "no rejoin granted" 0
    ((Server.stats srv).rejoins_0rtt + (Server.stats srv).rejoins_full);
  Alcotest.(check bool) "re-entered as a fresh member" true (Client.member ghost <> old_member);
  Alcotest.(check int) "fresh join counted" 6 (Server.stats srv).joins;
  Server.stop srv

(* Composed organizations — band node ids beyond i32 — are served in
   the one varint packet codec; clients track the composed DEK
   end-to-end. *)
let test_composed_served () =
  let loop = Loop.create () in
  let spec =
    match Organization.spec_of_string "composed" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~org:spec ()) in
  let port = Server.port srv in
  let clients =
    List.init 5 (fun i ->
        Client.connect ~loop
          { (Client.config ~port) with seed = i; loss = (if i < 2 then 0.2 else 0.0) })
  in
  run_until loop (fun () -> List.for_all Client.is_member clients);
  for i = 0 to 2 do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 800 + i } in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target)
  done;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) clients);
  let server_tbl = server_trace_tbl srv in
  List.iteri
    (fun i c -> check_trace ~server_tbl (Printf.sprintf "composed%d" i) c)
    clients;
  Server.stop srv

(* The smallest capacity the server accepts must pack every rekey it
   can emit: a composed organization (the widest ids) at exactly the
   floor serves its members through churn, and one byte below the
   floor is refused at create rather than raising out of a tick. *)
let test_capacity_floor () =
  let loop = Loop.create () in
  let org = Result.get_ok (Organization.spec_of_string "composed") in
  let floor = Packet.min_capacity_bytes in
  (match Server.create ~loop (cfg ~org ~capacity:(floor - 1) ()) with
  | exception Invalid_argument _ -> ()
  | srv ->
      Server.stop srv;
      Alcotest.failf "capacity %d below the floor accepted" (floor - 1));
  let srv = Server.create ~loop (cfg ~tp:0.01 ~org ~capacity:floor ()) in
  let port = Server.port srv in
  let clients =
    List.init 3 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i })
  in
  run_until loop (fun () -> List.for_all Client.is_member clients);
  let churner = Client.connect ~loop { (Client.config ~port) with seed = 900 } in
  run_until loop (fun () -> Client.is_member churner);
  let target = Server.Private.epoch srv in
  Client.leave churner;
  run_until loop (fun () -> Server.Private.epoch srv > target);
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) clients);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "floor%d" i) c) clients;
  Server.stop srv

(* The server speaks one wire version, checked on every frame header:
   a first frame whose header says another version, older or newer,
   draws a readable version error, and then the close. *)
let version_refused ~version () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ()) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let frame = Frame.encode ~version (Msg.Join { cls = `Long; loss = 0.0 }) in
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  (match read_frame loop (Frame.decoder ()) fd with
  | Msg.Error_msg { code; _ } -> Alcotest.(check int) "version error code" Msg.err_version code
  | m -> Alcotest.failf "expected ERROR, got %s" (Msg.tag_name (Msg.tag m)));
  Unix.set_nonblock fd;
  let closed () =
    match Unix.read fd (Bytes.create 16) 0 16 with
    | 0 -> true
    | _ -> Alcotest.fail "a frame after the version error"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
  in
  run_until ~timeout:5.0 loop closed;
  let s = Server.stats srv in
  Alcotest.(check (pair int int)) "no join, one protocol error" (0, 1)
    (s.Server.joins, s.Server.protocol_errors);
  Unix.close fd;
  Server.stop srv;
  Loop.close loop

let test_version_1_refused = version_refused ~version:1
let test_version_3_refused = version_refused ~version:3

(* A connection's first frame is its request: a raw JOIN, with nothing
   sent before it, is answered only at the next tick, by a RESYNC
   carrying the member's whole key path and first ticket. The
   admission counts as a join, not as a resync or a migration. *)
let test_raw_join_admitted () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ()) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  write_frame fd (Msg.Join { cls = `Long; loss = 0.0 });
  run_until loop (fun () -> (Server.stats srv).Server.joins = 1);
  Unix.set_nonblock fd;
  (match Unix.read fd (Bytes.create 16) 0 16 with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | _ -> Alcotest.fail "a reply before the admitting tick");
  Unix.clear_nonblock fd;
  Server.tick_now srv;
  (match read_frame loop (Frame.decoder ()) fd with
  | Msg.Resync { member; rekey_no; path; ticket; _ } ->
      let module O = (val Server.Private.organization srv : Organization.S) in
      Alcotest.(check int) "at the current rekey" (Server.rekey_no srv) rekey_no;
      Alcotest.(check bool) "the member's whole path" true (path = O.member_path member);
      Alcotest.(check bool) "its first ticket" true (Bytes.length ticket > 0)
  | m -> Alcotest.failf "expected RESYNC, got %s" (Msg.tag_name (Msg.tag m)));
  let s = Server.stats srv in
  Alcotest.(check (list int)) "joins, resyncs, migrations, tickets" [ 1; 0; 0; 1 ]
    [ s.Server.joins; s.Server.resyncs; s.Server.migrations; s.Server.tickets_issued ];
  Unix.close fd;
  Server.stop srv;
  Loop.close loop

(* The server answers one read's messages in one flight, in order,
   and a farewell ERROR queued in that flight still reaches the peer
   before the drop closes the socket. *)
let test_held_farewell () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ()) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let flight =
    Bytes.concat Bytes.empty
      (List.map Frame.encode
         [ Msg.Ping { token = 9L }; Msg.Nack { rekey_no = 1; seqs = [] } ])
  in
  ignore (Unix.write fd flight 0 (Bytes.length flight));
  let dec = Frame.decoder () in
  (match read_frame loop dec fd with
  | Msg.Pong { token = 9L } -> ()
  | m -> Alcotest.failf "expected PONG, got %s" (Msg.tag_name (Msg.tag m)));
  (match read_frame loop dec fd with
  | Msg.Error_msg { code; _ } -> Alcotest.(check int) "protocol error" Msg.err_protocol code
  | m -> Alcotest.failf "expected ERROR, got %s" (Msg.tag_name (Msg.tag m)));
  Alcotest.(check int) "then the close" 0 (Unix.read fd (Bytes.create 16) 0 16);
  Unix.close fd;
  Server.stop srv;
  Loop.close loop

(* An ERROR whose code the client does not know (here the reserved 5)
   ends the connection as a generic server error, reported verbatim. *)
let test_unassigned_error_code () =
  let loop = Loop.create () in
  let lfd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port = match Unix.getsockname lfd with ADDR_INET (_, p) -> p | _ -> assert false in
  let c = Client.connect ~loop (Client.config ~port) in
  let fd, _ = Unix.accept lfd in
  (match read_frame loop (Frame.decoder ()) fd with
  | Msg.Join _ -> write_frame fd (Msg.Error_msg { code = 5; detail = "unassigned" })
  | m -> Alcotest.failf "expected JOIN, got %s" (Msg.tag_name (Msg.tag m)));
  run_until loop (fun () -> Client.phase c = Client.Closed);
  Alcotest.(check (option string)) "generic error" (Some "server error 5: unassigned")
    (Client.last_error c);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ fd; lfd ];
  Loop.close loop

(* Rekeys only ever travel sealed: a client handed a plaintext REKEY
   frame by its server drops the connection as a protocol violation
   rather than applying unauthenticated key material. *)
let test_plaintext_rekey_refused () =
  let loop = Loop.create () in
  let lfd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port = match Unix.getsockname lfd with ADDR_INET (_, p) -> p | _ -> assert false in
  let c = Client.connect ~loop (Client.config ~port) in
  let fd, _ = Unix.accept lfd in
  let dec = Frame.decoder () in
  let key = Gkm_crypto.Key.fresh (Gkm_crypto.Prng.create 5) in
  (match read_frame loop dec fd with
  | Msg.Join _ ->
      write_frame fd
        (Msg.Resync
           {
             member = 1;
             rekey_no = 0;
             epoch = 0;
             root = 7;
             path = [ (7, key) ];
             ticket = Bytes.empty;
           })
  | m -> Alcotest.failf "expected JOIN, got %s" (Msg.tag_name (Msg.tag m)));
  run_until loop (fun () -> Client.is_member c);
  let payload = Bytes.make 2 '\000' in
  write_frame fd
    (Msg.Rekey
       {
         rekey_no = 1;
         org = 2;
         epoch = 1;
         root = 7;
         seq = 0;
         total = 1;
         packet = { Gkm_transport.Packet.seq = 0; block = 0; index_in_block = 0; payload };
       });
  run_until loop (fun () -> Client.phase c = Client.Closed);
  Alcotest.(check (option string)) "protocol violation" (Some "unexpected REKEY")
    (Client.last_error c);
  Alcotest.(check int) "no rekey applied" 0 (Client.last_rekey c);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ fd; lfd ]

(* The multi-lane fan-out must be a pure transport change: the same
   deterministic scenario (seeded org, manual ticks, churn gated on
   server-observable state so the organization sees the identical
   operation sequence) run under [domains = 1] and [domains = 4] must
   deliver every member the byte-identical stream of sealed records —
   same epochs, same record seqs, same ciphertexts. That holds because
   encoding AND sealing happen on the tick domain in seq order in both
   modes; the lanes only carry finished bytes. *)
let lockstep_run ?group ?capacity ~domains () =
  let n = 6 in
  let loop = Loop.create () in
  (* s_period beyond the run: a TT migration excludes the moved member
     from that tick's fan-out (its admitted_at resets), and the gap it
     then perceives triggers NACK recovery whose timing is racy even
     between two single-domain runs. Byte-identity needs a scenario
     with no timing-born recovery traffic at all. *)
  let org =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 1000 }
  in
  let srv =
    Server.create ~loop
      (cfg ~tp:3600.0 ~org ?capacity ~domains ?transport:(Option.map Server.udp group) ())
  in
  let port = Server.port srv in
  let joined = ref 0 and left = ref 0 in
  (* One member per tick, in lockstep: wait for the JOIN to be
     registered (stats.joins moves at receipt), run exactly one manual
     tick to admit, wait for membership. The org therefore executes the
     identical register/rekey sequence whatever the domain count. *)
  let admit c =
    incr joined;
    let target = !joined in
    run_until loop (fun () -> (Server.stats srv).joins = target);
    Server.tick_now srv;
    run_until loop (fun () -> Client.is_member c)
  in
  let depart c =
    Client.leave c;
    incr left;
    let target = !left in
    run_until loop (fun () -> (Server.stats srv).leaves = target);
    Server.tick_now srv;
    run_until loop (fun () -> Client.phase c = Client.Closed)
  in
  let traces = Array.make n [] in
  (* The epoch label each member held at admission. Over UDP the group
     datagram for a member's own admission tick can race its admitting
     RESYNC
     — a record sealed under a generation the member never held, which
     the TCP path by construction never delivers to it. Records below
     the admission label are that race and are filtered from the
     byte-compare (the client drops them as stale anyway). *)
  let admit_epoch = Array.make n 0 in
  let clients =
    Array.init n (fun i ->
        let c = Client.connect ~loop { (Client.config ~port) with seed = i; mcast = group } in
        Client.on_sealed c (fun ~epoch ~seq ~ct ->
            traces.(i) <- (epoch, seq, Bytes.copy ct) :: traces.(i));
        admit c;
        admit_epoch.(i) <- Client.Private.epoch c;
        c)
  in
  (* Churn: three join+leave cycles, each gated the same way, so every
     run performs the same ticks in the same order. *)
  for j = 0 to 2 do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 100 + j; mcast = group } in
    admit c;
    depart c
  done;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> Array.for_all (fun c -> Client.last_rekey c = last) clients);
  let server_tbl = server_trace_tbl srv in
  (* The sole first join produces no framed rekey, so member0's
     admission reports rekey 0 — a DEK the server's trace (which starts
     at the first framed rekey) never records. Skip it here; the
     cross-run comparison still covers it through the DEK traces. *)
  Array.iteri
    (fun i c ->
      check_trace_list ~server_tbl
        (Printf.sprintf "member%d" i)
        (List.filter (fun (no, _) -> no > 0) (Client.dek_trace c)))
    clients;
  let sealed =
    Array.mapi
      (fun i tr -> List.filter (fun (e, _, _) -> e >= admit_epoch.(i)) (List.rev tr))
      traces
  in
  let deks = Array.map Client.dek_trace clients in
  let tx = Server.tx_per_domain srv in
  (if group <> None then begin
     Array.iteri
       (fun i c ->
         Alcotest.(check bool)
           (Printf.sprintf "member%d heard the group" i)
           true
           (Client.mcast_datagrams_rx c > 0))
       clients;
     let st = Server.stats srv in
     Alcotest.(check bool) "server multicast datagrams" true (st.Server.mcast_datagrams > 0);
     Alcotest.(check int) "no unicast fallback" 0 st.Server.mcast_fallback_unicast;
     (* Each datagram is counted once: the stats agree with the
        [netd.mcast] journal, which records every generation and
        heartbeat datagram sent. *)
     if Gkm_obs.Obs.enabled () then begin
       let module Journal = Gkm_obs.Journal in
       let mcast =
         List.filter (fun e -> e.Journal.name = "netd.mcast") (Journal.events Journal.default)
       in
       let field k e = List.assoc_opt k e.Journal.fields in
       let bytes =
         List.fold_left
           (fun a e -> match field "bytes" e with Some (Journal.Int b) -> a + b | _ -> a)
           0 mcast
       in
       let generations =
         List.filter
           (fun e -> field "fallback" e = Some (Journal.Bool false) && field "heartbeat" e = None)
           mcast
       in
       Alcotest.(check int) "mcast_bytes = journaled bytes" bytes st.Server.mcast_bytes;
       Alcotest.(check int) "mcast_datagrams = journaled generations" (List.length generations)
         st.Server.mcast_datagrams
     end
   end);
  (* No recovery traffic may have fired: any NACK, RESYNC or soft skip
     means the scenario was not the quiet lockstep the byte-compare
     assumes. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "member%d sent no NACK" i) 0 (Client.nacks_sent c);
      Alcotest.(check int) (Printf.sprintf "member%d never resynced" i) 0 (Client.resyncs c))
    clients;
  let st = Server.stats srv in
  Alcotest.(check int) "server: no NACK" 0 st.Server.nacks;
  Alcotest.(check int) "server: no RESYNC" 0 st.Server.resyncs;
  Alcotest.(check int) "server: no soft skip" 0 st.Server.soft_skips;
  Server.stop srv;
  (sealed, deks, Server.dek_trace srv, tx)

(* Diff two lockstep runs: identical server DEK sequence, identical
   per-member DEK traces, and the byte-identical stream of sealed
   (epoch, seq, ciphertext) records. *)
let check_runs_identical ~tag (sealed1, deks1, sdek1) (sealed2, deks2, sdek2) =
  Alcotest.(check (list (pair int string)))
    (tag ^ ": server DEK sequence identical") sdek1 sdek2;
  Array.iteri
    (fun i d1 ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "%s: member%d DEK trace identical" tag i)
        d1 deks2.(i))
    deks1;
  Array.iteri
    (fun i t1 ->
      let t2 = sealed2.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: member%d saw sealed records" tag i)
        true (t1 <> []);
      Alcotest.(check int) (Printf.sprintf "%s: member%d sealed count" tag i)
        (List.length t1) (List.length t2);
      List.iteri
        (fun k ((e1, s1, c1), (e2, s2, c2)) ->
          Alcotest.(check int) (Printf.sprintf "%s: member%d record %d epoch" tag i k) e1 e2;
          Alcotest.(check int64) (Printf.sprintf "%s: member%d record %d seq" tag i k) s1 s2;
          Alcotest.(check bytes)
            (Printf.sprintf "%s: member%d record %d ciphertext" tag i k)
            c1 c2)
        (List.combine t1 t2))
    sealed1

let test_sharded_byte_identical () =
  let sealed1, deks1, sdek1, _ = lockstep_run ~domains:1 () in
  let sealed4, deks4, sdek4, tx4 = lockstep_run ~domains:4 () in
  Alcotest.(check int) "per-domain tx: tick domain + 4 shards" 5 (Array.length tx4);
  Alcotest.(check bool) "shard domains carried the fan-out" true
    (Array.exists (fun b -> b > 0) (Array.sub tx4 1 4));
  check_runs_identical ~tag:"domains" (sealed1, deks1, sdek1) (sealed4, deks4, sdek4)

(* A crash-killed member (no LEAVE, no drain) is still a recipient of
   the tick that runs before the server reads its EOF, so at
   domains = 2 a lane writes that rekey to the dead socket. The server
   must drop the connection exactly once, from its own loop, and park
   the member in resync grace; the survivors must converge on the
   server's DEK trace, and the next tick must fan out as usual. *)
let test_lane_dead_peer () =
  let module Journal = Gkm_obs.Journal in
  let org =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 1000 }
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org ~domains:2 ()) in
  let port = Server.port srv in
  let joins = ref 0 in
  let join seed =
    let c = Client.connect ~loop { (Client.config ~port) with seed } in
    incr joins;
    let target = !joins in
    run_until loop (fun () -> (Server.stats srv).Server.joins = target);
    c
  in
  let members = List.init 6 (fun i -> join (300 + i)) in
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member members);
  let victim = List.hd members and survivors = List.tl members in
  let vm = Client.member victim in
  let settled live =
    let last = Server.rekey_no srv in
    run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) live)
  in
  settled members;
  let lane_tx () = Array.fold_left ( + ) 0 (Array.sub (Server.tx_per_domain srv) 1 2) in
  Journal.clear Journal.default;
  with_obs true (fun () ->
      let churner = join 400 in
      let rekey0 = Server.rekey_no srv and tx0 = lane_tx () in
      Client.kill victim;
      Server.tick_now srv;
      Alcotest.(check int) "the tick framed a rekey" (rekey0 + 1) (Server.rekey_no srv);
      Alcotest.(check bool) "the lanes carried it" true (lane_tx () > tx0);
      let live = churner :: survivors in
      run_until loop (fun () ->
          List.for_all Client.is_member live
          && not (List.mem vm (Server.Private.bound_members srv)));
      settled live;
      (* The next tick fans out normally. *)
      let tx1 = lane_tx () in
      Client.leave churner;
      run_until loop (fun () -> (Server.stats srv).Server.leaves = 1);
      Server.tick_now srv;
      Alcotest.(check int) "the next tick framed a rekey" (rekey0 + 2) (Server.rekey_no srv);
      Alcotest.(check bool) "the lanes carried the next tick" true (lane_tx () > tx1);
      settled survivors);
  let drops =
    List.filter
      (fun e ->
        e.Journal.name = "netd.drop"
        && List.assoc_opt "member" e.Journal.fields = Some (Journal.Int vm))
      (Journal.events Journal.default)
  in
  Journal.clear Journal.default;
  Alcotest.(check int) "the dead peer was dropped once" 1 (List.length drops);
  Alcotest.(check bool) "dropped as a disconnect, not a departure" true
    (List.assoc_opt "departed" (List.hd drops).Journal.fields = Some (Journal.Bool false));
  let s = Server.stats srv in
  Alcotest.(check int) "no slow eviction" 0 s.Server.evictions_slow;
  Alcotest.(check int) "no grace eviction" 0 s.Server.evictions_grace;
  Alcotest.(check int) "the victim is still a member" 6 (Server.org_size srv);
  List.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "survivor%d sent no NACK" i) 0 (Client.nacks_sent c);
      Alcotest.(check int) (Printf.sprintf "survivor%d never resynced" i) 0 (Client.resyncs c))
    survivors;
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "survivor%d" i) c) survivors;
  (* Parked, not departed: the victim comes back as itself (by ticket
     or RESYNC, whichever it holds), which needs its membership. *)
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  Alcotest.(check int) "the victim came back as itself" vm (Client.member victim);
  List.iter Client.kill members;
  Server.stop srv;
  Loop.close loop

(* Observability must be byte-invisible on the socket path: the same
   lockstep scenario with instrumentation off and on delivers the
   identical DEK sequences and sealed records, and the instrumented
   run really did journal its ticks. *)
let test_obs_byte_invisible () =
  let module Journal = Gkm_obs.Journal in
  let sealed0, deks0, sdek0, _ = with_obs false (fun () -> lockstep_run ~domains:1 ()) in
  Journal.clear Journal.default;
  let sealed1, deks1, sdek1, _ = with_obs true (fun () -> lockstep_run ~domains:1 ()) in
  let rekeys =
    List.filter (fun e -> e.Journal.name = "netd.rekey") (Journal.events Journal.default)
  in
  Journal.clear Journal.default;
  Alcotest.(check bool) "the instrumented run journaled netd.rekey" true (rekeys <> []);
  check_runs_identical ~tag:"obs" (sealed0, deks0, sdek0) (sealed1, deks1, sdek1)

(* -------- the UDP multicast data plane -------- *)

let require_mcast () = if not (Mcast.available ()) then Alcotest.skip ()

(* Moving the sealed fan-out to the multicast datagram must be a pure
   transport change, exactly like the fan-out lanes: the same lockstep scenario
   over tcp and over udp (at domains 1 AND 4) delivers every member
   the byte-identical sealed records — same epoch labels, same record
   seqs, same ciphertexts — because both paths carry the one
   generation sealed on the tick domain. The domains-1 udp run has
   observability on, so it also checks the datagram counts against
   the journal. *)
let test_udp_byte_identical () =
  require_mcast ();
  let module Journal = Gkm_obs.Journal in
  let sealed_t, deks_t, sdek_t, _ = lockstep_run ~domains:1 () in
  Journal.clear Journal.default;
  let sealed_u1, deks_u1, sdek_u1, _ =
    with_obs true (fun () ->
        lockstep_run ~group:(Mcast.ephemeral_group ~seed:0xA1) ~domains:1 ())
  in
  Journal.clear Journal.default;
  let sealed_u4, deks_u4, sdek_u4, _ =
    lockstep_run ~group:(Mcast.ephemeral_group ~seed:0xA4) ~domains:4 ()
  in
  check_runs_identical ~tag:"tcp/udp@1" (sealed_t, deks_t, sdek_t) (sealed_u1, deks_u1, sdek_u1);
  check_runs_identical ~tag:"tcp/udp@4" (sealed_t, deks_t, sdek_t) (sealed_u4, deks_u4, sdek_u4);
  (* At the smallest capacity a packet holds one entry group, so some
     generations carry several records. A raw subscriber on the group
     sees every datagram: each must be, byte for byte, the SEALED
     frames the tcp run's member0 (a member before every generation)
     received for that rekey. *)
  let capacity = Packet.min_capacity_bytes in
  let sealed_t, deks_t, sdek_t, _ = lockstep_run ~capacity ~domains:1 () in
  let group = Mcast.ephemeral_group ~seed:0xA5 in
  let raw = match Mcast.subscribe group with Ok s -> s | Error e -> Alcotest.fail e in
  let sealed_u, deks_u, sdek_u, _ = lockstep_run ~group ~capacity ~domains:1 () in
  check_runs_identical ~tag:"tcp/udp small packets" (sealed_t, deks_t, sdek_t)
    (sealed_u, deks_u, sdek_u);
  (* A quiet tick's heartbeat repeats the datagram before it. *)
  let rec datagrams acc =
    match (Mcast.recv raw, acc) with
    | None, _ -> List.rev acc
    | Some d, prev :: _ when Bytes.equal d prev -> datagrams acc
    | Some d, _ -> datagrams (d :: acc)
  in
  let dgrams = datagrams [] in
  Mcast.close_sub raw;
  let frames =
    ref
      (List.map
         (fun (epoch, seq, ct) -> Frame.encode (Msg.Sealed { epoch; seq; ct }))
         sealed_t.(0))
  in
  let multi = ref 0 in
  List.iteri
    (fun k d ->
      let n =
        match Frame.decode_datagram d with
        | Ok records -> List.length records
        | Error e -> Alcotest.failf "datagram %d: %s" k e
      in
      if n >= 2 then incr multi;
      let mine = List.filteri (fun i _ -> i < n) !frames in
      frames := List.filteri (fun i _ -> i >= n) !frames;
      Alcotest.(check bytes)
        (Printf.sprintf "datagram %d is member0's %d tcp frame(s)" k n)
        (Bytes.concat Bytes.empty mine) d)
    dgrams;
  Alcotest.(check int) "every tcp frame of member0 went in a datagram" 0 (List.length !frames);
  Alcotest.(check int) "generations multicast" 11 (List.length dgrams);
  Alcotest.(check int) "generations of >= 2 records" 9 !multi

(* A small rekey must be small on the wire: a payload padded to the
   1 KiB capacity makes a 2-entry rekey's SEALED frame 1094 bytes.
   Steady churn at the serving default capacity; member0 opens every
   record it is sent under the DEK it holds, so the sizes checked
   belong to rekeys whose entries are known. Returns (entries,
   datagram bytes, SEALED frame bytes) per single-record rekey, and
   the server's stats. The datagram bytes are measured on a raw
   subscriber to the group (0 over tcp). *)
let small_rekey_sizes ?group () =
  let raw =
    Option.map
      (fun g -> match Mcast.subscribe g with Ok s -> s | Error e -> Alcotest.fail e)
      group
  in
  let loop = Loop.create () in
  let srv =
    Server.create ~loop (cfg ~tp:3600.0 ~capacity:1024 ?transport:(Option.map Server.udp group) ())
  in
  let port = Server.port srv in
  let joined = ref 0 and left = ref 0 in
  (* One tick per interval, once the interval's JOIN (and LEAVE) have
     reached the server — the benchmark's steady churn. *)
  let tick ~join ~leave =
    let c = Client.connect ~loop { (Client.config ~port) with seed = join; mcast = group } in
    incr joined;
    let target = !joined in
    run_until loop (fun () -> (Server.stats srv).joins = target);
    Option.iter
      (fun old ->
        Client.leave old;
        incr left;
        let target = !left in
        run_until loop (fun () -> (Server.stats srv).leaves = target))
      leave;
    Server.tick_now srv;
    run_until loop (fun () ->
        Client.is_member c
        && match leave with Some old -> Client.phase old = Client.Closed | None -> true);
    c
  in
  let sizes = ref [] in
  let observe c ~epoch ~seq ~ct =
    match Client.group_key c with
    | Some dek when epoch = Client.Private.epoch c -> (
        let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:epoch) in
        let rekey =
          match Record.Sink.open_ sink ~seq ct with
          | Ok pt -> Msg.decode_inner pt
          | Error _ -> Error "record does not open"
        in
        match rekey with
        | Ok (Msg.Rekey r) when r.total = 1 -> (
            match Packet.decode_payload r.packet.Packet.payload with
            | Ok es ->
                sizes :=
                  (es, (epoch, seq), Bytes.length (Frame.encode (Msg.Sealed { epoch; seq; ct })))
                  :: !sizes
            | Error e -> Alcotest.fail e)
        | _ -> ())
    | _ -> ()
  in
  let member0 = tick ~join:0 ~leave:None in
  Client.on_sealed member0 (observe member0);
  let members = [ member0; tick ~join:1 ~leave:None ] in
  let churner = ref (tick ~join:100 ~leave:None) in
  for j = 1 to 16 do
    churner := tick ~join:(100 + j) ~leave:(Some !churner)
  done;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) members);
  let st = Server.stats srv in
  Server.stop srv;
  (* Each datagram's length, by its first record. *)
  let dgram_len = Hashtbl.create 32 in
  Option.iter
    (fun sub ->
      let rec drain () =
        match Mcast.recv sub with
        | None -> ()
        | Some d ->
            (match Frame.decode_datagram d with
            | Ok ((epoch, seq, _) :: _) -> Hashtbl.replace dgram_len (epoch, seq) (Bytes.length d)
            | _ -> Alcotest.fail "undecodable datagram on the group");
            drain ()
      in
      drain ();
      Mcast.close_sub sub)
    raw;
  let measured key =
    if Option.is_none raw then 0
    else
      match Hashtbl.find_opt dgram_len key with
      | Some n -> n
      | None -> Alcotest.fail "a record member0 opened came in no captured datagram"
  in
  (List.map (fun (es, key, frame) -> (es, measured key, frame)) !sizes, st)

let test_small_rekey_unpadded () =
  let check tag sizes pick ~steady =
    let two = List.filter (fun (es, _, _) -> List.length es = 2) sizes in
    Alcotest.(check bool) (tag ^ ": 2-entry rekeys observed") true (two <> []);
    List.iter
      (fun s ->
        let b = pick s in
        Alcotest.(check bool)
          (Printf.sprintf "%s of a 2-entry rekey: %d B < 400" tag b)
          true (b < 400))
      two;
    (* Once the first two members have moved to L, a rekey carries the
       DEK under the L root alone: its wrap under the churner's leaf
       goes by the admitting RESYNC only. *)
    let one =
      List.filter
        (fun (es, _, _) ->
          match es with
          | [ (e : Gkm_lkh.Rekey_msg.entry) ] -> e.target_node = Scheme.dek_node
          | _ -> false)
        sizes
    in
    Alcotest.(check bool) (tag ^ ": 1-entry DEK rekeys observed") true (List.length one >= 4);
    List.iter (fun s -> Alcotest.(check int) (tag ^ " of a 1-entry DEK rekey") steady (pick s)) one
  in
  let sizes, _ = small_rekey_sizes () in
  check "tcp SEALED frame" sizes (fun (_, _, frame) -> frame) ~steady:73;
  if Mcast.available () then begin
    let sizes, st = small_rekey_sizes ~group:(Mcast.ephemeral_group ~seed:0xA2) () in
    check "udp datagram" sizes (fun (_, dgram, _) -> dgram) ~steady:73;
    Alcotest.(check bool) "server multicast datagrams" true (st.Server.mcast_datagrams > 0);
    Alcotest.(check bool)
      (Printf.sprintf "server sent %d B in %d datagrams, each < 400 on average"
         st.Server.mcast_bytes st.Server.mcast_datagrams)
      true
      (st.Server.mcast_bytes < 400 * st.Server.mcast_datagrams)
  end

(* Subscribers on one domain share one receive buffer. Interleaved
   receives on two subscribers must each return their own datagram,
   and a datagram already returned must not change under later
   receives. Lengths shrink so a view into the shared buffer would
   show the next datagram's bytes. *)
let test_mcast_shared_recv_buffer () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xC3 in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let subs = [ ok (Mcast.subscribe group); ok (Mcast.subscribe group) ] in
  let sender = ok (Mcast.create_sender group) in
  let dgrams = List.init 4 (fun i -> Bytes.make (900 - (200 * i)) (Char.chr (0x41 + i))) in
  List.iter (Mcast.send sender) dgrams;
  let recv_wait sub =
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec go () =
      match Mcast.recv sub with
      | Some d -> d
      | None ->
          if Unix.gettimeofday () > deadline then Alcotest.fail "datagram not received";
          ignore (Unix.select [ Mcast.sub_fd sub ] [] [] 0.05);
          go ()
    in
    go ()
  in
  let got = List.map (fun _ -> List.map recv_wait subs) dgrams in
  List.iteri
    (fun i (d, per_sub) ->
      List.iteri
        (fun s r ->
          Alcotest.(check string) (Printf.sprintf "datagram %d on subscriber %d" i s)
            (Bytes.to_string d) (Bytes.to_string r))
        per_sub)
    (List.combine dgrams got);
  Mcast.close_sender sender;
  List.iter Mcast.close_sub subs

(* A datagram socket has no end of stream: an empty datagram sent to
   the group ahead of a rekey is one undecodable datagram, not a dry
   socket. Nor is the group a control channel: an off-path sender's
   ERROR, a RESYNC naming the member with a key path, a SEALED frame
   trailed by a truncated one and a datagram in the retired GM
   envelope are each refused whole. The member counts every one,
   keeps its phase, keys and DEK trace, and still installs the
   rekey's DEK, with no NACK and no RESYNC. *)
let test_udp_empty_datagram () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xE0 in
  let loop = Loop.create () in
  (* No TT migration may move the member's keys while it is watched. *)
  let org =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 1000 }
  in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~org ~transport:(Server.udp group) ()) in
  let port = Server.port srv in
  let join seed = Client.connect ~loop { (Client.config ~port) with seed; mcast = Some group } in
  let member = join 21 and churner = join 22 in
  run_until loop (fun () ->
      Client.is_member member && Client.is_member churner
      && Client.last_rekey member = Server.rekey_no srv);
  let sender =
    match Mcast.create_sender group with Ok s -> s | Error e -> Alcotest.fail e
  in
  let forged_key = Gkm_crypto.Key.of_bytes (Bytes.make Gkm_crypto.Key.size 'f') in
  let forged_nodes = [ 12_345; Scheme.dek_node ] in
  let sealed =
    Frame.encode
      (Msg.Sealed
         { epoch = Client.Private.epoch member; seq = 0L; ct = Bytes.make 40 'x' })
  in
  let forged =
    [
      Bytes.empty;
      Frame.encode (Msg.Error_msg { code = Msg.err_evicted; detail = "forged" });
      Frame.encode
        (Msg.Resync
           {
             member = Client.member member;
             rekey_no = Client.last_rekey member + 1;
             epoch = Client.Private.epoch member + 1;
             root = Scheme.dek_node;
             path = List.map (fun n -> (n, forged_key)) forged_nodes;
             ticket = Bytes.empty;
           });
      Bytes.cat sealed (Bytes.sub sealed 0 (Bytes.length sealed - 1));
      Gkm_crypto.Hex.decode "474d0101050202aabb";
    ]
  in
  let state () =
    ( Client.phase member,
      Client.Private.epoch member,
      Client.group_key member,
      List.map (Client.Private.key_of member) forged_nodes,
      Client.dek_trace member )
  in
  let before = state () in
  List.iter (Mcast.send sender) forged;
  run_until loop (fun () -> Client.Private.mcast_decode_errors member = List.length forged);
  Alcotest.(check bool) "phase, keys and DEK trace unchanged" true (state () = before);
  let target = Server.rekey_no srv + 1 in
  Client.leave churner;
  run_until loop (fun () -> Client.last_rekey member >= target);
  Alcotest.(check int) "every forged datagram counted" (List.length forged)
    (Client.Private.mcast_decode_errors member);
  Alcotest.(check int) "no NACK" 0 (Client.nacks_sent member);
  Alcotest.(check int) "no resync" 0 (Client.resyncs member);
  check_trace ~server_tbl:(server_trace_tbl srv) "member" member;
  Mcast.close_sender sender;
  Server.stop srv

(* A receive shim that holds every datagram it can must still hand the
   held one on once the socket runs dry: a lone datagram is counted,
   and the next rekey's generation installs with no NACK. *)
let test_udp_reorder_hold_released () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xD1 in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~transport:(Server.udp group) ()) in
  let port = Server.port srv in
  let join seed fault =
    Client.connect ~loop
      { (Client.config ~port) with seed; mcast = Some group; mcast_fault = fault }
  in
  let member = join 31 (Netem.cfg ~reorder:1.0 ()) and churner = join 32 Netem.none in
  run_until loop (fun () ->
      Client.is_member member && Client.is_member churner
      && Client.last_rekey member = Server.rekey_no srv);
  let sender = match Mcast.create_sender group with Ok s -> s | Error e -> Alcotest.fail e in
  Mcast.send sender Bytes.empty;
  run_until loop (fun () -> Client.Private.mcast_decode_errors member = 1);
  let target = Server.rekey_no srv + 1 in
  Client.leave churner;
  run_until loop (fun () -> Client.last_rekey member >= target);
  Alcotest.(check int) "no NACK" 0 (Client.nacks_sent member);
  Alcotest.(check int) "no resync" 0 (Client.resyncs member);
  check_trace ~server_tbl:(server_trace_tbl srv) "member" member;
  Mcast.close_sender sender;
  Server.stop srv

(* Injected datagram faults on each receiver: light Bernoulli loss,
   reordering and duplication on every peer's receive shim plus a
   hostile one on one client (heavier loss, reordering, duplication).
   Every member must keep converging on the server's exact DEK
   sequence — gaps recovered by NACK over the TCP control channel,
   duplicates absorbed by the replay window — with RESYNC fallbacks
   staying bounded. *)
let test_udp_lossy_convergence () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xBEEF in
  let fault = Netem.cfg ~loss:(Loss_model.bernoulli 0.01) ~reorder:0.2 ~dup:0.2 () in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~transport:(Server.udp group) ()) in
  let port = Server.port srv in
  let lossy =
    Client.connect ~loop
      {
        (Client.config ~port) with
        seed = 42;
        mcast = Some group;
        mcast_fault = Netem.cfg ~loss:(Loss_model.bernoulli 0.3) ~reorder:0.2 ~dup:0.3 ();
      }
  in
  let peers =
    List.init 6 (fun i ->
        Client.connect ~loop
          { (Client.config ~port) with seed = i; mcast = Some group; mcast_fault = fault })
  in
  let duplicated =
    Client.connect ~loop
      {
        (Client.config ~port) with
        seed = 77;
        mcast = Some group;
        mcast_fault = Netem.cfg ~dup:0.3 ();
      }
  in
  let all = lossy :: duplicated :: peers in
  run_until loop (fun () -> List.for_all Client.is_member all);
  for i = 0 to 29 do
    let c =
      Client.connect ~loop { (Client.config ~port) with seed = 500 + i; mcast = Some group }
    in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target)
  done;
  run_until loop (fun () -> List.for_all (fun c -> Client.rekeys_completed c >= 15) all);
  let st = Server.stats srv in
  Alcotest.(check bool) "datagrams were multicast" true (st.Server.mcast_datagrams > 0);
  Alcotest.(check bool) "mcast bytes counted" true (st.Server.mcast_bytes > 0);
  Alcotest.(check bool) "lossy client heard the group" true
    (Client.mcast_datagrams_rx lossy > 0);
  Alcotest.(check bool) "recovery traffic flowed" true
    (Client.nacks_sent lossy + Client.resyncs lossy > 0);
  Alcotest.(check bool) "resyncs bounded" true (Client.resyncs lossy <= 5);
  (* Each record of an injected duplicate is absorbed: by the replay
     window, as a stale label once the first copy completed its
     generation and rolled the sink, or, buffered for a generation
     ahead of the client, discarded by a resync. The counters also
     take other copies (heartbeats, stale or forged frames), so every
     client absorbs at least as many records as its shim duplicated
     datagrams. *)
  List.iteri
    (fun i c ->
      let dups = Client.Private.mcast_duplicates c in
      let absorbed =
        Client.replays_dropped c + Client.auth_dropped c + Client.Private.pending_discarded c
      in
      if dups = 0 then Alcotest.failf "client %d: no duplicate injected" i;
      if absorbed < dups then
        Alcotest.failf "client %d: %d duplicates, %d records absorbed (%d resyncs)" i dups
          absorbed (Client.resyncs c))
    all;
  Alcotest.(check int) "duplicates alone cause no NACK" 0 (Client.nacks_sent duplicated);
  Alcotest.(check int) "duplicates alone cause no resync" 0 (Client.resyncs duplicated);
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "lossy" lossy;
  check_trace ~server_tbl "duplicated" duplicated;
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "peer%d" i) c) peers;
  Server.stop srv

(* Tail-loss heartbeat: a datagram lost off the END of a churn burst
   has no successor to reveal the gap, so NACK recovery never fires —
   only the server's quiet-tick re-multicast of the latest generation
   can close it. Churn under heavy receive loss, then stop all churn
   and require every subscriber to reach the final generation with no
   further membership traffic. Also pins the absorption semantics: a
   member already past the repeated generation drops the stale-label
   copies (auth_dropped) without ever NACKing or resyncing. *)
let test_udp_heartbeat_tail_loss () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xB2 in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~transport:(Server.udp group) ()) in
  let port = Server.port srv in
  let lossy =
    Client.connect ~loop
      {
        (Client.config ~port) with
        seed = 7;
        mcast = Some group;
        mcast_fault = Netem.cfg ~loss:(Loss_model.bernoulli 0.5) ();
      }
  in
  let clean =
    Client.connect ~loop { (Client.config ~port) with seed = 8; mcast = Some group }
  in
  run_until loop (fun () -> Client.is_member lossy && Client.is_member clean);
  for i = 0 to 9 do
    let c =
      Client.connect ~loop { (Client.config ~port) with seed = 300 + i; mcast = Some group }
    in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.Private.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.Private.epoch srv > target)
  done;
  let last = Server.rekey_no srv in
  (* No churn from here on: convergence may come only from heartbeats
     (or a NACK a heartbeat's future label provoked). *)
  run_until loop (fun () ->
      Client.last_rekey lossy = last && Client.last_rekey clean = last);
  run_until loop (fun () -> (Server.stats srv).Server.mcast_heartbeats > 0);
  run_until loop (fun () -> Client.auth_dropped clean > 0);
  Alcotest.(check int) "clean member never resynced" 0 (Client.resyncs clean);
  Alcotest.(check int) "clean member sent no NACK" 0 (Client.nacks_sent clean);
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "lossy" lossy;
  check_trace ~server_tbl "clean" clean;
  Server.stop srv

(* A rekey lost to the member's own simulated receive loss ([drop]) is
   repaired like one lost on the wire: the loss is drawn before the
   record's seq enters the replay window, so the quiet-tick heartbeat's
   copy of the generation opens. Churn one departure at a time until the
   member drops the newest generation, then stop: only a heartbeat can
   repair that tail (one-keytree, so no migration rekey follows). Each
   generation is one record, and a member that opened it has rotated
   past its label before a copy returns, so every replay would be a copy
   of a record the member dropped. *)
let test_udp_drop_repaired_by_heartbeat () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xD4 in
  let loop = Loop.create () in
  let org = Organization.Scheme_cfg (Scheme.default_config Scheme.One_keytree) in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~org ~transport:(Server.udp group) ()) in
  let port = Server.port srv in
  let lossy =
    Client.connect ~loop
      {
        (Client.config ~port) with
        seed = 11;
        mcast = Some group;
        drop = Some (Loss_model.bernoulli 0.4);
      }
  in
  let seqs = Hashtbl.create 64 in
  Client.on_sealed lossy (fun ~epoch ~seq ~ct:_ -> Hashtbl.replace seqs (epoch, seq) ());
  let churners =
    List.init 20 (fun i ->
        Client.connect ~loop { (Client.config ~port) with seed = 600 + i; mcast = Some group })
  in
  run_until loop (fun () -> List.for_all Client.is_member (lossy :: churners));
  let rec churn = function
    | [] -> Alcotest.fail "the member never dropped the newest generation"
    | c :: rest ->
        let target = Server.rekey_no srv + 1 and dropped = Client.Private.frames_dropped lossy in
        Client.leave c;
        run_until loop (fun () -> Server.rekey_no srv >= target);
        run_until loop (fun () ->
            Client.last_rekey lossy >= target || Client.Private.frames_dropped lossy > dropped);
        if Client.last_rekey lossy < target then target else churn rest
  in
  let last = churn churners in
  run_until loop (fun () -> Client.last_rekey lossy = last);
  Alcotest.(check int) "no rekey after the dropped one" last (Server.rekey_no srv);
  Alcotest.(check int) "no replay of a dropped record" 0 (Client.replays_dropped lossy);
  Alcotest.(check int) "repaired without a NACK" 0 (Client.nacks_sent lossy);
  Alcotest.(check int) "repaired without a resync" 0 (Client.resyncs lossy);
  let labels = Hashtbl.fold (fun (epoch, _) () acc -> epoch :: acc) seqs [] in
  Alcotest.(check int) "one record per generation" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  check_trace ~server_tbl:(server_trace_tbl srv) "lossy" lossy;
  Server.stop srv

(* -------- hostile cohorts (the conformance interop lane, in-process) -------- *)

module Cohort = Gkm_conformance.Cohort

(* Each case runs a fresh in-process server on the cohort's own loop,
   with a couple of honest members keeping the organization alive, and
   asserts both the cohort's client-side verdict and the server's
   stats counters — the same pair of checks `gkm conform --interop`
   makes against a spawned server. *)
let with_hostile_server ?(resync_budget = 3) f =
  let loop = Loop.create () in
  let srv = Server.create ~loop { (cfg ()) with resync_budget } in
  let herd = Cohort.spawn_clients ~loop ~port:(Server.port srv) ~n:3 ~seed:50 () in
  run_until loop (fun () -> List.for_all Client.is_member herd);
  f loop srv herd;
  List.iter Client.kill herd;
  Server.stop srv

let check_verdict (v : Cohort.verdict) =
  Alcotest.(check bool) (v.name ^ ": " ^ v.detail) true v.ok

let test_conform_nack_flood () =
  with_hostile_server ~resync_budget:3 (fun loop srv _herd ->
      check_verdict (Cohort.nack_flood ~loop ~port:(Server.port srv) ~budget:3 ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "resyncs_denied >= 1" true (st.Server.resyncs_denied >= 1);
      Alcotest.(check bool) "resyncs bounded by budget" true (st.Server.resyncs <= 3);
      Alcotest.(check bool) "flood cost a protocol error" true (st.Server.protocol_errors >= 1))

let test_conform_evictee_transmit () =
  with_hostile_server (fun loop srv _herd ->
      check_verdict (Cohort.evictee_lockout ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "dead ticket rejected" true (st.Server.ticket_rejects >= 1);
      Alcotest.(check bool) "dead resync cost a protocol error" true
        (st.Server.protocol_errors >= 1))

let test_conform_ticket_replay () =
  with_hostile_server (fun loop srv _herd ->
      check_verdict (Cohort.ticket_replay ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "2 bearer re-binds" true (st.Server.rejoins_full >= 2);
      Alcotest.(check bool) "corrupt ticket soft-rejected" true (st.Server.ticket_rejects >= 1))

let test_conform_version_refused () =
  with_hostile_server (fun loop srv _herd ->
      check_verdict (Cohort.version_refused ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "both refusals counted" true (st.Server.protocol_errors >= 2))

(* An in-window NACK naming seq 0 two thousand times: the server must
   resend each distinct seq once, not once per repeat, so one NACK
   costs at most the rekey's packet count. What it resends is the
   fan-out's own SEALED frame, byte for byte: same epoch label, same
   record seq, same ciphertext as a herd member received. *)
let test_nack_duplicate_seqs () =
  with_hostile_server (fun loop srv herd ->
      let seen = ref [] in
      Client.on_sealed (List.hd herd) (fun ~epoch ~seq ~ct -> seen := (epoch, seq, ct) :: !seen);
      let r = Cohort.Private.Raw.connect ~loop ~port:(Server.port srv) in
      if Cohort.Private.Raw.join r ~timeout:10.0 = None then Alcotest.fail "no admission";
      (* the rekey that admitted the raw peer, sealed under the herd's
         generation and so held for retransmission; the raw peer itself
         got none of its fan-out *)
      let rekey_no = Server.rekey_no srv in
      run_until loop (fun () -> Client.last_rekey (List.hd herd) >= rekey_no);
      let fanout = !seen in
      let st0 = Server.stats srv in
      let nacks0 = st0.Server.nacks and frames0 = st0.Server.nack_frames in
      Cohort.Private.Raw.send r (Msg.Nack { rekey_no; seqs = List.init 2000 (fun _ -> 0) });
      run_until loop (fun () -> (Server.stats srv).Server.nacks > nacks0);
      let frames = (Server.stats srv).Server.nack_frames - frames0 in
      Alcotest.(check int) "one frame for the one distinct seq" 1 frames;
      let resent =
        Cohort.Private.Raw.await r ~timeout:10.0 (function
          | Msg.Sealed { epoch; seq; ct } ->
              if List.exists (fun (e, s, c) -> e = epoch && s = seq && Bytes.equal c ct) fanout
              then Some ()
              else None
          | _ -> None)
      in
      Alcotest.(check bool) "the answer is a SEALED frame of the fan-out, byte for byte" true
        (resent <> None);
      Cohort.Private.Raw.close r)

(* The DEK trace log against the boxed list it replaced: the same
   (rekey_no, fingerprint) pairs, oldest first, the no-key [""]
   included, across many chunk boundaries. Most numbers follow the
   previous one, as a member's do, with jumps and repeats between, and
   one run counts past 2^31 - 1, where the log folds to 0. *)
let test_dek_log_roundtrip () =
  let log = Dek_log.create () in
  let rng = Random.State.make [| 7 |] in
  let reference = ref [] and prev = ref 0 in
  for i = 0 to 12_345 do
    let rekey_no =
      if i = 12_345 then 0x7FFF_FFFF
      else if i = 6_000 then 0x7FFF_FFF0
      else if (i > 6_000 && i < 6_100) || Random.State.int rng 10 < 8 then !prev + 1
      else i + Random.State.int rng 3
    in
    prev := rekey_no;
    let fp =
      if Random.State.int rng 7 = 0 then ""
      else Printf.sprintf "%08x" (Random.State.bits rng land 0xFFFF_FFFF)
    in
    Dek_log.add log ~rekey_no fp;
    reference := (rekey_no land 0x7FFF_FFFF, fp) :: !reference
  done;
  Alcotest.(check (list (pair int string))) "oldest-first list" (List.rev !reference)
    (Dek_log.to_list log);
  Alcotest.(check (list (pair int string))) "empty log" [] (Dek_log.to_list (Dek_log.create ()));
  match Dek_log.add log ~rekey_no:1 "ABCDEF01" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a fingerprint that would not round-trip was accepted"

(* -------- the event loop itself -------- *)

let socketpair () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (a, b)

let poke fd = ignore (Unix.write_substring fd "x" 0 1)

let drain_byte fd =
  let b = Bytes.create 64 in
  try ignore (Unix.read fd b 0 64) with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

let close_pairs pairs =
  List.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    pairs

let dispatched loop = (Loop.Private.counters loop).Loop.dispatched

(* A step's cost follows the ready descriptors, not the registered
   ones: 500 quiet sockets and one readable one make one callback. *)
let test_loop_idle () =
  let loop = Loop.create () in
  let pairs = List.init 500 (fun _ -> socketpair ()) in
  let hits = Array.make 500 0 in
  List.iteri
    (fun i (a, _) ->
      Loop.add_fd loop a ~readable:(fun () -> hits.(i) <- hits.(i) + 1) ~writable:ignore)
    pairs;
  poke (snd (List.nth pairs 321));
  let d0 = dispatched loop in
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check int) "one dispatch" 1 (dispatched loop - d0);
  Alcotest.(check int) "the ready fd's handler" 1 hits.(321);
  Alcotest.(check int) "no other handler" 1 (Array.fold_left ( + ) 0 hits);
  List.iter (fun (a, _) -> Loop.remove_fd loop a) pairs;
  close_pairs pairs;
  Loop.close loop

(* Two descriptors ready in one batch, each handler removing the
   other: whichever runs first must suppress the other's dispatch. *)
let test_loop_remove_in_batch () =
  let loop = Loop.create () in
  let ((a, pa) as p1) = socketpair () and ((b, pb) as p2) = socketpair () in
  let ran = ref [] in
  Loop.add_fd loop a
    ~readable:(fun () ->
      ran := "a" :: !ran;
      drain_byte a;
      Loop.remove_fd loop b)
    ~writable:ignore;
  Loop.add_fd loop b
    ~readable:(fun () ->
      ran := "b" :: !ran;
      drain_byte b;
      Loop.remove_fd loop a)
    ~writable:ignore;
  poke pa;
  poke pb;
  (* both bytes are in flight before the wait, so one batch sees both *)
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check int) "exactly one handler ran" 1 (List.length !ran);
  Loop.step ~max_wait:0.05 loop;
  Alcotest.(check int) "and the removed one never does" 1 (List.length !ran);
  close_pairs [ p1; p2 ];
  Loop.close loop

(* Write interest follows the outbox: armed by a partial write, the
   outbox drains as the peer reads, then disarmed — after which an idle
   step dispatches nothing. *)
let test_loop_partial_write () =
  let loop = Loop.create () in
  let a, b = socketpair () in
  Unix.setsockopt_int a SO_SNDBUF 4096;
  let c = Gkm_netd.Conn.create a in
  Loop.add_fd loop a ~readable:ignore ~writable:(fun () ->
      ignore (Gkm_netd.Conn.write_through loop c));
  let k0 = (Loop.Private.counters loop).Loop.interest_changes in
  Gkm_netd.Conn.enqueue_frame c (Bytes.make (256 * 1024) 'z');
  ignore (Gkm_netd.Conn.write_through loop c);
  Alcotest.(check bool) "partial write" true (Gkm_netd.Conn.out_bytes c > 0);
  Alcotest.(check int) "write interest armed" (k0 + 1) (Loop.Private.counters loop).Loop.interest_changes;
  let buf = Bytes.create 65536 and got = ref 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Gkm_netd.Conn.out_bytes c > 0 && Unix.gettimeofday () < deadline do
    (try got := !got + Unix.read b buf 0 (Bytes.length buf)
     with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
    Loop.step ~max_wait:0.01 loop
  done;
  Alcotest.(check int) "outbox drained" 0 (Gkm_netd.Conn.out_bytes c);
  Alcotest.(check int) "write interest disarmed" (k0 + 2)
    (Loop.Private.counters loop).Loop.interest_changes;
  let d0 = dispatched loop in
  Loop.step ~max_wait:0.05 loop;
  Alcotest.(check int) "idle step dispatches nothing" 0 (dispatched loop - d0);
  Loop.remove_fd loop a;
  Gkm_netd.Conn.close c;
  Unix.close b;
  Loop.close loop

(* Frames queued before a flush leave in order, one write(2) per 64:
   on a SOCK_SEQPACKET pair each write is one record, so the records
   the peer reads count the syscalls. 100 frames, the ring wrapped and
   grown by a first flight, make two records. *)
let test_conn_gathered_flush () =
  let a, b = Unix.socketpair PF_UNIX SOCK_SEQPACKET 0 in
  let c = Gkm_netd.Conn.create a in
  let buf = Bytes.create 65536 in
  let records want =
    let dec = Frame.decoder () in
    let rec frames acc =
      match Frame.next dec with
      | Ok (Some m) -> frames (m :: acc)
      | Ok None -> List.rev acc
      | Error e -> Alcotest.fail (Frame.error_message e)
    in
    List.map
      (fun _ ->
        let n = Unix.read b buf 0 (Bytes.length buf) in
        Frame.feed dec buf 0 n;
        frames [])
      (List.init want Fun.id)
  in
  let send msgs =
    List.iter (fun m -> Gkm_netd.Conn.enqueue_frame c (Frame.encode m)) msgs;
    Alcotest.(check bool) "flushed" true (Gkm_netd.Conn.flush c = `Ok);
    Alcotest.(check int) "nothing left queued" 0 (Gkm_netd.Conn.out_bytes c)
  in
  let flight =
    [ Msg.Pong { token = 0L }; Msg.Pong { token = 1L }; Msg.Pong { token = 2L } ]
  in
  send flight;
  Alcotest.(check bool) "a flight is one record, in order" true (records 1 = [ flight ]);
  let many = List.init 100 (fun i -> Msg.Pong { token = Int64.of_int i }) in
  send many;
  (match records 2 with
  | [ first; second ] ->
      Alcotest.(check int) "64 frames in the first write" 64 (List.length first);
      Alcotest.(check bool) "in order" true (first @ second = many)
  | _ -> assert false);
  Unix.set_nonblock b;
  (match Unix.read b buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | _ -> Alcotest.fail "a third write");
  Gkm_netd.Conn.close c;
  Unix.close b

(* [on_readable] stops at a read shorter than its 64 KiB scratch. A
   conn on a loop, fed by a raw peer socket: each readiness runs one
   [on_readable] and records what it returned. *)
let conn_steps () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let loop = Loop.create () in
  let c = Gkm_netd.Conn.create a in
  let got = ref [] in
  Loop.add_fd loop a
    ~readable:(fun () -> got := Gkm_netd.Conn.on_readable c :: !got)
    ~writable:ignore;
  let finish () =
    Loop.remove_fd loop a;
    Gkm_netd.Conn.close c;
    Unix.close b;
    Loop.close loop
  in
  (loop, b, got, finish)

let sealed i len = Msg.Sealed { epoch = 1; seq = Int64.of_int i; ct = Bytes.make len 'c' }

(* Two frames and a FIN written as one segment: the first readiness
   yields both messages (one short read, no second read to meet the
   end), and the level-triggered loop reports the end of stream on the
   next step. *)
let test_conn_short_read_eof () =
  let loop, b, got, finish = conn_steps () in
  let msgs = [ sealed 0 40; sealed 1 40 ] in
  let seg = Bytes.concat Bytes.empty (List.map Frame.encode msgs) in
  ignore (Unix.write b seg 0 (Bytes.length seg));
  Unix.shutdown b SHUTDOWN_SEND;
  Loop.step ~max_wait:1.0 loop;
  (match !got with
  | [ `Msgs ms ] -> Alcotest.(check bool) "both messages, in order" true (ms = msgs)
  | _ -> Alcotest.fail "first readiness: expected both messages, no end of stream");
  Loop.step ~max_wait:1.0 loop;
  (match !got with
  | [ `Eof []; _ ] -> ()
  | _ -> Alcotest.fail "second readiness: expected the end of stream alone");
  finish ()

(* A burst larger than the scratch buffer: a full read reads on, a
   short one ends the step, and every frame still arrives, in order. *)
let test_conn_burst_over_scratch () =
  let loop, b, got, finish = conn_steps () in
  Unix.set_nonblock b;
  let msgs = List.init 60 (fun i -> sealed i 4000) in
  let burst = Bytes.concat Bytes.empty (List.map Frame.encode msgs) in
  Alcotest.(check bool) "burst exceeds the scratch" true (Bytes.length burst > 2 * 65536);
  let off = ref 0 and steps = ref 0 in
  let received () =
    List.concat_map (function `Msgs ms -> ms | _ -> Alcotest.fail "stream ended or corrupt") (List.rev !got)
  in
  while List.length (received ()) < List.length msgs && !steps < 1000 do
    (match Unix.write b burst !off (Bytes.length burst - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
    Loop.step ~max_wait:0.05 loop;
    incr steps
  done;
  Alcotest.(check int) "every byte written" (Bytes.length burst) !off;
  Alcotest.(check bool) "every frame, in order" true (received () = msgs);
  finish ()

(* A recycled descriptor number is a new registration: its handler
   runs, the old one never does — also when the reuse happens inside
   the batch that still carries the old number's event. *)
let test_loop_fd_reuse () =
  let loop = Loop.create () in
  let old_hits = ref 0 and new_hits = ref 0 in
  let a, pa = socketpair () in
  Loop.add_fd loop a ~readable:(fun () -> incr old_hits) ~writable:ignore;
  Loop.remove_fd loop a;
  Unix.close a;
  Unix.close pa;
  let c, pc = socketpair () in
  Alcotest.(check bool) "fd number reused" true (c = a);
  Loop.add_fd loop c
    ~readable:(fun () ->
      incr new_hits;
      drain_byte c)
    ~writable:ignore;
  poke pc;
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check (pair int int)) "new handler only" (0, 1) (!old_hits, !new_hits);
  (* In-batch reuse: x and c are both ready; whichever handler runs
     first retires the other fd and registers a fresh socket on its
     number, which must not inherit the stale event. *)
  let x, px = socketpair () in
  let fresh = ref None and fresh_hits = ref 0 and first = ref true in
  let retire victim =
    if !first then begin
      first := false;
      Loop.remove_fd loop victim;
      Unix.close victim;
      let f, pf = socketpair () in
      Alcotest.(check bool) "victim's number reused" true (f = victim);
      Loop.add_fd loop f ~readable:(fun () -> incr fresh_hits) ~writable:ignore;
      fresh := Some (f, pf)
    end
  in
  Loop.remove_fd loop c;
  Loop.add_fd loop c ~readable:(fun () -> drain_byte c; retire x) ~writable:ignore;
  Loop.add_fd loop x ~readable:(fun () -> drain_byte x; retire c) ~writable:ignore;
  poke pc;
  poke px;
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check int) "stale event not delivered to the new registration" 0 !fresh_hits;
  (match !fresh with
  | Some (f, pf) ->
      poke pf;
      Loop.step ~max_wait:1.0 loop;
      Alcotest.(check int) "the new registration dispatches" 1 !fresh_hits;
      Loop.remove_fd loop f;
      close_pairs [ (f, pf) ]
  | None -> Alcotest.fail "no handler ran");
  List.iter (Loop.remove_fd loop) [ c; x ];
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ c; pc; x; px ];
  Loop.close loop

(* More ready descriptors than one wait returns: the rest come with
   the next step. *)
let test_loop_overflow () =
  let loop = Loop.create () in
  let n = Loop.Private.max_events + (Loop.Private.max_events / 2) in
  let pairs = List.init n (fun _ -> socketpair ()) in
  let hits = Array.make n 0 in
  List.iteri
    (fun i (a, b) ->
      Loop.add_fd loop a
        ~readable:(fun () ->
          hits.(i) <- hits.(i) + 1;
          drain_byte a)
        ~writable:ignore;
      poke b)
    pairs;
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check int) "first step fills the buffer" Loop.Private.max_events
    (Array.fold_left ( + ) 0 hits);
  Loop.step ~max_wait:1.0 loop;
  Alcotest.(check (array int)) "every fd once within two steps" (Array.make n 1) hits;
  List.iter (fun (a, _) -> Loop.remove_fd loop a) pairs;
  close_pairs pairs;
  Loop.close loop

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A loop holds one descriptor, released by [close] or, for a loop its
   owner drops, by the collector. *)
let test_loop_no_leak () =
  (* Loops earlier tests dropped must not be finalised mid-count. *)
  Gc.full_major ();
  Gc.full_major ();
  let before = open_fds () in
  for _ = 1 to 5000 do
    Loop.close (Loop.create ())
  done;
  Alcotest.(check int) "create/close leaves the fd table" before (open_fds ());
  for _ = 1 to 200 do
    ignore (Sys.opaque_identity (Loop.create ()))
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "dropped loops are finalised" before (open_fds ())

(* A timer due in under half a millisecond: the wait rounds up to
   1 ms instead of down to a zero-timeout spin. *)
let test_loop_timer_rounding () =
  let loop = Loop.create () in
  let due = Loop.now loop +. 0.0003 in
  let fired = ref nan in
  Loop.after loop ~delay:0.0003 (fun () -> fired := Loop.now loop);
  let s0 = (Loop.Private.counters loop).Loop.steps in
  Loop.run loop ~until:(fun () -> not (Float.is_nan !fired));
  let steps = (Loop.Private.counters loop).Loop.steps - s0 in
  Alcotest.(check bool) (Printf.sprintf "at most two waits (%d)" steps) true (steps <= 2);
  Alcotest.(check bool) "not early" true (!fired >= due);
  Alcotest.(check bool)
    (Printf.sprintf "on time (%.2f ms late)" ((!fired -. due) *. 1000.0))
    true
    (!fired -. due < 0.05);
  Loop.close loop

(* Write-through fan-out: frames that fit the socket never touch the
   interest set. 64 members receive a rekey and the loop makes no
   write-interest change. *)
let test_loop_fanout_no_interest () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ()) in
  let port = Server.port srv in
  let members =
    List.init 64 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = 600 + i })
  in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 64);
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member members);
  let joiner = Client.connect ~loop { (Client.config ~port) with seed = 700 } in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 65);
  let k0 = (Loop.Private.counters loop).Loop.interest_changes in
  Server.tick_now srv;
  let target = Server.rekey_no srv in
  run_until loop (fun () ->
      Client.is_member joiner && List.for_all (fun c -> Client.last_rekey c = target) members);
  Alcotest.(check int) "no write-interest change" 0
    ((Loop.Private.counters loop).Loop.interest_changes - k0);
  List.iter Client.kill (joiner :: members);
  Server.stop srv;
  Loop.close loop

(* ---- Tickets: what a tick mints, and what a rejoin restores ---- *)

module Keytree = Gkm_keytree.Keytree
module Journal = Gkm_obs.Journal
module Metrics = Gkm_obs.Metrics

let members_under t node =
  let acc = ref [] in
  Keytree.iter_members_under t node (fun m -> acc := m :: !acc);
  List.rev !acc

(* Until the server has dropped [member]'s connection. *)
let await_unbound loop srv member =
  run_until loop (fun () -> not (List.mem member (Server.Private.bound_members srv)))

(* [c] holds the server's key for every node of its member's current
   path, the group key included. *)
let check_path srv ~label c =
  let module O = (val Server.Private.organization srv : Organization.S) in
  List.iter
    (fun (node, key) ->
      match Client.Private.key_of c node with
      | Some k when Gkm_crypto.Key.equal k key -> ()
      | Some _ -> Alcotest.failf "%s: member %d holds a stale key for node %d" label (Client.member c) node
      | None -> Alcotest.failf "%s: member %d lacks the key of node %d" label (Client.member c) node)
    (O.member_path (Client.member c))

(* Crash-kill [victim] once it has read everything the server sent it,
   then bring it back by ticket. *)
let kill_and_rejoin loop srv victim =
  let drained = ref false in
  Client.drain victim (fun () -> drained := true);
  run_until loop (fun () -> !drained);
  Client.kill victim;
  await_unbound loop srv (Client.member victim);
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim)

(* Randomized churn — joins, leaves, crash-kills and (S-period 3)
   migrations, so paths reshape and leaves move while members are
   dark — on one organization, 60 ticks. A ticket never goes stale, so
   a sweep over every connected member would mint one for each member
   admitted, and nothing else: each tick must mint exactly that, and
   leave every connected member holding a ticket. Every dark member
   that returns by ticket must then hold the server's key for each
   node of its current path. The run ends with every live member on
   the server's DEK trace, with no NACK and no RESYNC. *)
let oracle_churn selector () =
  let spec =
    match Organization.spec_of_string ~s_period:3 selector with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let stats () = Server.stats srv in
  let rng = Random.State.make [| Hashtbl.hash selector |] in
  let seed = ref 0 in
  let join () =
    incr seed;
    let joins = (stats ()).Server.joins in
    let c =
      Client.connect ~loop
        {
          (Client.config ~port) with
          seed = !seed;
          cls = (if Random.State.bool rng then `Short else `Long);
          loss = (if Random.State.bool rng then 0.2 else 0.01);
        }
    in
    run_until loop (fun () -> (stats ()).Server.joins > joins);
    c
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let bound c = List.mem (Client.member c) (Server.Private.bound_members srv) in
  let live = ref [] and dark = ref [] in
  let rejoin ~label c =
    Client.reconnect c;
    run_until loop (fun () -> Client.is_member c);
    check_path srv ~label c;
    dark := List.filter (fun d -> d != c) !dark;
    live := c :: !live
  in
  let admitted = ref 0 in
  let tick label =
    let issued0 = (stats ()).Server.tickets_issued in
    let joins = (stats ()).Server.joins in
    Server.tick_now srv;
    Alcotest.(check int)
      (label ^ ": tickets minted = the sweep's (one per admission)")
      (joins - !admitted)
      ((stats ()).Server.tickets_issued - issued0);
    admitted := joins;
    run_until loop (fun () -> List.for_all Client.is_member !live);
    List.iter
      (fun c ->
        if Client.export_resumption c = None then
          Alcotest.failf "%s: connected member %d holds no ticket" label (Client.member c))
      !live
  in
  live := List.init 8 (fun _ -> join ());
  tick (selector ^ " admission");
  for n = 1 to 60 do
    let label = Printf.sprintf "%s tick %d" selector n in
    List.iter (fun c -> if Random.State.bool rng then rejoin ~label c) !dark;
    for _ = 1 to Random.State.int rng 3 do
      live := join () :: !live
    done;
    let members = List.filter Client.is_member !live in
    if List.length members > 6 && Random.State.bool rng then begin
      let c = pick members in
      let leaves = (stats ()).Server.leaves in
      Client.leave c;
      run_until loop (fun () -> (stats ()).Server.leaves > leaves);
      live := List.filter (fun d -> d != c) !live
    end;
    let members = List.filter Client.is_member !live in
    if List.length members > 3 && Random.State.int rng 3 = 0 then begin
      let c = pick members in
      Client.kill c;
      run_until loop (fun () -> not (bound c));
      live := List.filter (fun d -> d != c) !live;
      dark := c :: !dark
    end;
    tick label
  done;
  List.iter (rejoin ~label:(selector ^ " final")) !dark;
  let c = join () in
  live := c :: !live;
  tick (selector ^ " final");
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) !live);
  let s = stats () in
  Alcotest.(check bool) (selector ^ ": rejoined by ticket") true (s.Server.rejoins_0rtt >= 1);
  Alcotest.(check int) (selector ^ ": no NACK") 0 s.Server.nacks;
  Alcotest.(check int) (selector ^ ": no RESYNC") 0 s.Server.resyncs;
  let server_tbl = server_trace_tbl srv in
  List.iteri
    (fun i c ->
      let label = Printf.sprintf "%s member %d" selector i in
      Alcotest.(check int) (label ^ " never resynced") 0 (Client.resyncs c);
      check_trace ~server_tbl label c)
    !live;
  List.iter Client.kill !live;
  Server.stop srv;
  Loop.close loop

let oracle_cases =
  List.map
    (fun sel -> Alcotest.test_case (sel ^ ": ticket pass = full sweep") `Quick (oracle_churn sel))
    [ "one"; "qt"; "tt"; "pt"; "loss:0.05"; "random:2"; "composed"; "composed:qt" ]

(* A connected member whose path is reshaped keeps its ticket and
   still comes back by delta. Two reshapes under TT (S-period 2): a
   sibling leaf departs, so the collapse re-parents the victim's leaf;
   then an S->L migration moves a second victim, whose RESYNC carries
   its new path. After each, the victim crash-kills and REJOINs. *)
let test_reshaped_rejoin () =
  let spec =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 2 }
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let module O = (val Server.Private.organization srv : Organization.S) in
  let connect seed = Client.connect ~loop { (Client.config ~port) with seed } in
  let clients = ref (List.init 7 (fun i -> connect (100 + i))) in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 7);
  let settle () =
    run_until loop (fun () -> List.for_all Client.is_member !clients);
    let last = Server.rekey_no srv in
    run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) !clients)
  in
  let tick () = Server.tick_now srv; settle () in
  let s_tree, l_tree =
    match O.trees () with [ s; l ] -> (s, l) | _ -> Alcotest.fail "TT serves two trees"
  in
  (* admit, then let the S-period run out: all seven move to L together *)
  while Keytree.size l_tree < 7 do tick () done;
  let rejoin label c =
    kill_and_rejoin loop srv c;
    check_path srv ~label c
  in
  (* 1. a victim whose parent holds exactly it and one sibling leaf *)
  let parent m = fst (List.nth (Keytree.path l_tree m) 1) in
  let victim, sibling =
    let pair c =
      let m = Client.member c in
      match members_under l_tree (parent m) with
      | [ a; b ] when List.length (Keytree.path l_tree m) > 2 ->
          let other = if a = m then b else a in
          Option.map (fun s -> (c, s)) (List.find_opt (fun d -> Client.member d = other) !clients)
      | _ -> None
    in
    match List.find_map pair !clients with
    | Some p -> p
    | None -> Alcotest.fail "no two-leaf parent in the L tree"
  in
  let old_parent = parent (Client.member victim) in
  let leaves = (Server.stats srv).Server.leaves in
  Client.leave sibling;
  run_until loop (fun () -> (Server.stats srv).Server.leaves > leaves);
  clients := List.filter (fun c -> c != sibling) !clients;
  tick ();
  Alcotest.(check bool) "collapse re-parented the victim" true
    (parent (Client.member victim) <> old_parent);
  rejoin "victim" victim;
  (* 2. a fresh joiner sits in S for the S-period, then migrates *)
  let mover = connect 200 in
  clients := mover :: !clients;
  run_until loop (fun () -> (Server.stats srv).Server.joins = 8);
  tick ();
  Alcotest.(check bool) "joiner starts in S" true (Keytree.mem s_tree (Client.member mover));
  let migrations = (Server.stats srv).Server.migrations in
  while not (Keytree.mem l_tree (Client.member mover)) do tick () done;
  Alcotest.(check bool) "the migration was pushed" true
    ((Server.stats srv).Server.migrations > migrations);
  rejoin "mover" mover;
  (* one more rekey, then both victims must track the server *)
  let churner = connect 300 in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 9);
  clients := churner :: !clients;
  tick ();
  let s = Server.stats srv in
  Alcotest.(check bool) "0-RTT rejoins" true (s.Server.rejoins_0rtt >= 2);
  Alcotest.(check int) "no full-path rejoin" 0 s.Server.rejoins_full;
  Alcotest.(check int) "victim: no resync" 0 (Client.resyncs victim);
  Alcotest.(check int) "mover: no resync" 0 (Client.resyncs mover);
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "victim" victim;
  check_trace ~server_tbl "mover" mover;
  List.iter Client.kill !clients;
  Server.stop srv;
  Loop.close loop

(* A member outside every key tree — a QT queue member, keyed under a
   synthetic leaf — is reshaped when the composed DEK above its band
   goes away: the other band empties, no entry names the change, and
   no tree holds the member. Its leaf stays put, so it comes back by
   delta. *)
let test_queue_member_reshaped () =
  let spec =
    match Organization.spec_of_string ~s_period:10 "composed:qt" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let module O = (val Server.Private.organization srv : Organization.S) in
  let queued = Client.connect ~loop { (Client.config ~port) with seed = 1; loss = 0.01 } in
  let other = Client.connect ~loop { (Client.config ~port) with seed = 2; loss = 0.2 } in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 2);
  Server.tick_now srv;
  run_until loop (fun () -> Client.is_member queued && Client.is_member other);
  let path () = List.map fst (O.member_path (Client.member queued)) in
  Alcotest.(check int) "queue leaf, band DEK, composed DEK" 3 (List.length (path ()));
  Client.leave other;
  run_until loop (fun () -> (Server.stats srv).Server.leaves = 1);
  Server.tick_now srv;
  Alcotest.(check int) "the composed DEK is gone" 2 (List.length (path ()));
  let last = Server.rekey_no srv in
  run_until loop (fun () -> Client.last_rekey queued = last);
  kill_and_rejoin loop srv queued;
  check_path srv ~label:"queued" queued;
  let s = Server.stats srv in
  Alcotest.(check int) "0-RTT rejoin" 1 s.Server.rejoins_0rtt;
  Alcotest.(check int) "no full-path rejoin" 0 s.Server.rejoins_full;
  Client.kill queued;
  Server.stop srv;
  Loop.close loop

(* ---- What a REJOIN_ACK carries ---- *)

module Codec = Gkm_crypto.Codec

(* The member, epoch, ticket issue epoch, individual key and ticket of
   a resumption blob ("GKTK" || i32 member || i32 epoch || i32 issued
   epoch || var16 key || var16 ticket). *)
let parse_resumption blob =
  match
    Codec.parse blob (fun r ->
        Codec.magic r "GKTK";
        let member = Codec.i32 r in
        let epoch = Codec.i32 r in
        let issued_epoch = Codec.i32 r in
        let individual = Gkm_crypto.Key.of_bytes (Codec.var16 r) in
        (member, epoch, issued_epoch, individual, Codec.var16 r))
  with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let export c =
  match Client.export_resumption c with
  | Some b -> b
  | None -> Alcotest.fail "no resumption state"

(* A hand-driven 0-RTT flight: one REJOIN frame presenting a ticket (as
   [parse_resumption] returns it), answered by exactly one frame, the
   REJOIN_ACK. Returns the opened resume body; the peer is closed and
   its binding dropped first. *)
let raw_rejoin loop srv (member, epoch, issued_epoch, individual, ticket) =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  write_frame fd (Msg.Rejoin { have_epoch = epoch; have_state = true; ticket });
  let dec = Frame.decoder () in
  let resume =
    match read_frame loop dec fd with
    | Msg.Rejoin_ack { member = m; ct } -> (
        Alcotest.(check int) "REJOIN_ACK names the member" member m;
        let rs = Record.Ticket.resume_key ~individual ~issued_epoch in
        match Result.bind (Record.counter_open rs ~ad:Record.resume_ad ct) Msg.decode_resume with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
    | m -> Alcotest.failf "expected REJOIN_ACK, got %s" (Msg.tag_name (Msg.tag m))
  in
  Loop.step ~max_wait:0.005 loop;
  Unix.set_nonblock fd;
  (match Unix.read fd (Bytes.create 16) 0 16 with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) when Frame.buffered dec = 0 -> ()
  | _ -> Alcotest.fail "a second frame after the REJOIN_ACK");
  Unix.close fd;
  await_unbound loop srv member;
  resume

(* A two-member one-keytree group: a churner joins into a free slot
   of the root and leaves again, so the epoch moves without touching
   the others' paths. *)
let one_keytree_pair () =
  let spec = Organization.Scheme_cfg (Scheme.default_config Scheme.One_keytree) in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let connect seed = Client.connect ~loop { (Client.config ~port) with seed } in
  let victim = connect 1 and peer = connect 2 in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 2);
  Server.tick_now srv;
  run_until loop (fun () -> Client.is_member victim && Client.is_member peer);
  let module O = (val Server.Private.organization srv : Organization.S) in
  let nodes () = List.map fst (O.member_path (Client.member victim)) in
  let seed = ref 100 in
  let churn () =
    incr seed;
    let joins = (Server.stats srv).Server.joins and leaves = (Server.stats srv).Server.leaves in
    let c = connect !seed in
    run_until loop (fun () -> (Server.stats srv).Server.joins > joins);
    Server.tick_now srv;
    run_until loop (fun () -> Client.is_member c);
    Client.leave c;
    run_until loop (fun () -> (Server.stats srv).Server.leaves > leaves);
    Server.tick_now srv
  in
  (loop, srv, victim, peer, nodes, churn)

let issued srv = (Server.stats srv).Server.tickets_issued

(* Every key of a delta is the server's current key for its node. *)
let check_delta srv member (r : Msg.resume) =
  let module O = (val Server.Private.organization srv : Organization.S) in
  let path = O.member_path member in
  List.iter
    (fun (node, key) ->
      match List.assoc_opt node path with
      | Some k when Gkm_crypto.Key.equal k key -> ()
      | _ -> Alcotest.failf "delta key for node %d is not the server's" node)
    r.Msg.path

(* A REJOIN presenting the member's ticket is answered without one:
   nothing is minted, the client keeps presenting the same blob, and
   every return is a 0-RTT delta. *)
let test_current_ticket_kept () =
  let loop, srv, victim, peer, _, _ = one_keytree_pair () in
  let blob = export victim and minted = issued srv in
  for round = 1 to 2 do
    kill_and_rejoin loop srv victim;
    let s = Server.stats srv in
    Alcotest.(check int) (Printf.sprintf "rejoin %d: 0-RTT delta" round) round s.rejoins_0rtt;
    Alcotest.(check int) (Printf.sprintf "rejoin %d: no full rejoin" round) 0 s.rejoins_full;
    Alcotest.(check int) (Printf.sprintf "rejoin %d: no ticket minted" round) minted (issued srv);
    Alcotest.(check bool) (Printf.sprintf "rejoin %d: same ticket kept" round) true
      (Bytes.equal blob (export victim))
  done;
  Client.kill victim;
  await_unbound loop srv (Client.member victim);
  let r = raw_rejoin loop srv (parse_resumption blob) in
  Alcotest.(check bool) "a delta" false r.Msg.full;
  Alcotest.(check int) "the ticket field is empty" 0 (Bytes.length r.Msg.ticket);
  Alcotest.(check int) "still nothing minted" minted (issued srv);
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  Alcotest.(check int) "every return a 0-RTT delta" 4 (Server.stats srv).Server.rejoins_0rtt;
  List.iter Client.kill [ victim; peer ];
  Server.stop srv;
  Loop.close loop

(* A ticket does not age: the admission ticket, presented after the
   epoch has moved on with the member dark, and again later from the
   state it held then, is answered with a delta of the current keys
   and no ticket, and nothing is minted. *)
let test_old_ticket_delta () =
  let loop, srv, victim, peer, nodes, churn = one_keytree_pair () in
  let n0 = nodes () in
  let ((member, _, issued_epoch, _, _) as old) = parse_resumption (export victim) in
  Client.kill victim;
  await_unbound loop srv member;
  let minted0 = issued srv in
  for round = 1 to 2 do
    for _ = 1 to 3 do churn () done;
    let minted = issued srv in
    let r = raw_rejoin loop srv old in
    let tag = Printf.sprintf "rejoin %d" round in
    Alcotest.(check bool) (tag ^ ": a delta") false r.Msg.full;
    Alcotest.(check int) (tag ^ ": no ticket in the reply") 0 (Bytes.length r.Msg.ticket);
    Alcotest.(check int) (tag ^ ": nothing minted") minted (issued srv);
    Alcotest.(check bool) (tag ^ ": the group key moved") true (r.Msg.path <> []);
    check_delta srv member r
  done;
  Alcotest.(check bool) "the ticket is old" true (Server.Private.epoch srv - issued_epoch >= 6);
  Alcotest.(check bool) "no reshape" true (n0 = nodes ());
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  check_path srv ~label:"victim" victim;
  let s = Server.stats srv in
  Alcotest.(check int) "every return a 0-RTT delta" 3 s.Server.rejoins_0rtt;
  Alcotest.(check int) "no full rejoin" 0 s.Server.rejoins_full;
  Alcotest.(check int) "tickets only for the six churners" (minted0 + 6) (issued srv);
  List.iter Client.kill [ victim; peer ];
  Server.stop srv;
  Loop.close loop

(* A member dark while joins reshape its path keeps its leaf: every
   node that joined its path since came with a fresh key, so the delta
   carries it, and the rejoined member holds its whole current path
   and tracks the server. *)
let test_reshaped_dark_delta () =
  let loop, srv, victim, peer, nodes, _ = one_keytree_pair () in
  let n0 = nodes () and blob = export victim in
  let member = Client.member victim in
  Client.kill victim;
  await_unbound loop srv member;
  let joined = ref [] and port = Server.port srv in
  while n0 = nodes () && List.length !joined < 16 do
    let joins = (Server.stats srv).Server.joins in
    let seed = 300 + List.length !joined in
    joined := Client.connect ~loop { (Client.config ~port) with seed } :: !joined;
    run_until loop (fun () -> (Server.stats srv).Server.joins > joins);
    Server.tick_now srv
  done;
  Alcotest.(check bool) "joins reshaped the victim's path" true (n0 <> nodes ());
  Alcotest.(check int) "the same leaf" (List.hd n0) (List.hd (nodes ()));
  let minted = issued srv in
  let r = raw_rejoin loop srv (parse_resumption blob) in
  Alcotest.(check bool) "a delta" false r.Msg.full;
  Alcotest.(check int) "no ticket in the reply" 0 (Bytes.length r.Msg.ticket);
  Alcotest.(check int) "nothing minted" minted (issued srv);
  check_delta srv member r;
  List.iter
    (fun node ->
      if not (List.mem node n0 || List.mem_assoc node r.Msg.path) then
        Alcotest.failf "node %d joined the path but is not in the delta" node)
    (nodes ());
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim);
  check_path srv ~label:"victim" victim;
  let churner = Client.connect ~loop { (Client.config ~port) with seed = 400 } in
  let joins = (Server.stats srv).Server.joins in
  run_until loop (fun () -> (Server.stats srv).Server.joins > joins);
  Server.tick_now srv;
  let live = victim :: peer :: churner :: !joined in
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) live);
  let s = Server.stats srv in
  Alcotest.(check int) "no full rejoin" 0 s.Server.rejoins_full;
  Alcotest.(check int) "no NACK" 0 s.Server.nacks;
  Alcotest.(check int) "no RESYNC" 0 s.Server.resyncs;
  check_trace ~server_tbl:(server_trace_tbl srv) "victim" victim;
  List.iter Client.kill live;
  Server.stop srv;
  Loop.close loop

(* A member crash-killed in S and migrated to L while dark has a new
   leaf: its REJOIN gets the full path, and it tracks the server
   afterwards, with no RESYNC and no NACK. *)
let test_moved_dark_full () =
  let spec =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 2 }
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let module O = (val Server.Private.organization srv : Organization.S) in
  let connect seed = Client.connect ~loop { (Client.config ~port) with seed } in
  let clients = ref (List.init 5 (fun i -> connect (100 + i))) in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 5);
  let settle () =
    run_until loop (fun () -> List.for_all Client.is_member !clients);
    let last = Server.rekey_no srv in
    run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) !clients)
  in
  let tick () = Server.tick_now srv; settle () in
  let s_tree, l_tree =
    match O.trees () with [ s; l ] -> (s, l) | _ -> Alcotest.fail "TT serves two trees"
  in
  while Keytree.size l_tree < 5 do tick () done;
  let mover = connect 200 in
  clients := mover :: !clients;
  run_until loop (fun () -> (Server.stats srv).Server.joins = 6);
  tick ();
  let member = Client.member mover in
  Alcotest.(check bool) "joiner starts in S" true (Keytree.mem s_tree member);
  let drained = ref false in
  Client.drain mover (fun () -> drained := true);
  run_until loop (fun () -> !drained);
  Client.kill mover;
  await_unbound loop srv member;
  clients := List.filter (fun c -> c != mover) !clients;
  let migrations = (Server.stats srv).Server.migrations in
  while not (Keytree.mem l_tree member) do tick () done;
  Alcotest.(check int) "no migration RESYNC to a dark member" migrations
    (Server.stats srv).Server.migrations;
  Client.reconnect mover;
  clients := mover :: !clients;
  run_until loop (fun () -> Client.is_member mover);
  let s = Server.stats srv in
  Alcotest.(check int) "one full-path rejoin" 1 s.Server.rejoins_full;
  Alcotest.(check int) "no delta rejoin" 0 s.Server.rejoins_0rtt;
  check_path srv ~label:"mover" mover;
  let churner = connect 300 in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 7);
  clients := churner :: !clients;
  tick ();
  let s = Server.stats srv in
  Alcotest.(check int) "no NACK" 0 s.Server.nacks;
  Alcotest.(check int) "no RESYNC" 0 s.Server.resyncs;
  Alcotest.(check int) "mover: no resync" 0 (Client.resyncs mover);
  check_trace ~server_tbl:(server_trace_tbl srv) "mover" mover;
  List.iter Client.kill !clients;
  Server.stop srv;
  Loop.close loop

(* A ticket has no horizon. Member A stays connected while churn moves
   the epoch more than 200 past its admission ticket (the only one it
   is ever given); crash-killed then, it comes back by 0-RTT delta
   with that ticket: nothing refused, nothing minted, no RESYNC. *)
let test_old_ticket_rejoin () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ()) in
  let port = Server.port srv in
  let connect seed = Client.connect ~loop { (Client.config ~port) with seed } in
  let a = connect 1 in
  let peers = List.init 3 (fun i -> connect (10 + i)) in
  let stats () = Server.stats srv in
  run_until loop (fun () -> (stats ()).joins = 4);
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member (a :: peers));
  let _, _, issued_epoch, _, ticket = parse_resumption (export a) in
  let seed = ref 100 in
  while Server.Private.epoch srv <= issued_epoch + 200 do
    incr seed;
    let joins = (stats ()).joins and leaves = (stats ()).leaves in
    let c = connect !seed in
    run_until loop (fun () -> (stats ()).joins > joins);
    Server.tick_now srv;
    run_until loop (fun () -> Client.is_member c);
    Client.leave c;
    run_until loop (fun () -> (stats ()).leaves > leaves);
    Server.tick_now srv
  done;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> Client.last_rekey a = last);
  let minted = issued srv in
  kill_and_rejoin loop srv a;
  let _, _, issued_epoch', _, ticket' = parse_resumption (export a) in
  Alcotest.(check bool) "A still holds its admission ticket" true
    (issued_epoch' = issued_epoch && Bytes.equal ticket ticket');
  Alcotest.(check bool) "older than 200 epochs" true
    (Server.Private.epoch srv - issued_epoch > 200);
  let s = stats () in
  Alcotest.(check int) "nothing refused" 0 s.ticket_rejects;
  Alcotest.(check int) "one 0-RTT rejoin" 1 s.rejoins_0rtt;
  Alcotest.(check int) "no full rejoin" 0 s.rejoins_full;
  Alcotest.(check int) "no RESYNC" 0 s.resyncs;
  Alcotest.(check int) "nothing minted" minted (issued srv);
  check_path srv ~label:"A" a;
  check_trace ~server_tbl:(server_trace_tbl srv) "A" a;
  List.iter Client.kill (a :: peers);
  Server.stop srv;
  Loop.close loop

(* A ticket the server cannot open — here one sealed under another
   server's ticket key — is refused softly (err_ticket), and the client
   falls back to one authenticated RESYNC. That RESYNC carries a ticket
   of this server, by which the member's next return is a 0-RTT
   delta. *)
let test_foreign_ticket_resync () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ()) in
  let port = Server.port srv in
  let connect ?resume seed = Client.connect ~loop { (Client.config ~port) with seed; resume } in
  let a = connect 1 in
  let peers = List.init 3 (fun i -> connect (10 + i)) in
  let stats () = Server.stats srv in
  run_until loop (fun () -> (stats ()).joins = 4);
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member (a :: peers));
  let member, epoch, issued_epoch, individual, _ = parse_resumption (export a) in
  let foreign =
    Record.Ticket.Sealer.issue
      (Record.Ticket.Sealer.create ~seed:(Server.default_config.ticket_seed + 1))
      {
        Record.Ticket.member;
        cls = `Long;
        loss = 0.0;
        issued_epoch;
        issued_rekey = 0;
        path_digest = Bytes.make 16 '\000';
      }
  in
  let blob =
    let buf = Buffer.create 128 in
    Buffer.add_string buf "GKTK";
    Codec.add_i32 buf member;
    Codec.add_i32 buf epoch;
    Codec.add_i32 buf issued_epoch;
    Codec.add_var16 buf (Gkm_crypto.Key.to_bytes individual);
    Codec.add_var16 buf foreign;
    Buffer.to_bytes buf
  in
  Client.kill a;
  await_unbound loop srv member;
  let minted = issued srv in
  let b = connect ~resume:blob 2 in
  run_until loop (fun () -> Client.is_member b);
  let s = stats () in
  Alcotest.(check int) "one ticket refused" 1 s.ticket_rejects;
  Alcotest.(check int) "no rejoin" 0 (s.rejoins_0rtt + s.rejoins_full);
  Alcotest.(check int) "fell back to one RESYNC" 1 (Client.resyncs b);
  Alcotest.(check int) "server answered it" 1 s.resyncs;
  Alcotest.(check int) "as member A" member (Client.member b);
  Alcotest.(check int) "the RESYNC carried a ticket" (minted + 1) (issued srv);
  check_path srv ~label:"B" b;
  kill_and_rejoin loop srv b;
  let s = stats () in
  Alcotest.(check int) "its next return a 0-RTT delta" 1 s.rejoins_0rtt;
  Alcotest.(check int) "no full rejoin" 0 s.rejoins_full;
  check_path srv ~label:"B rejoined" b;
  check_trace ~server_tbl:(server_trace_tbl srv) "B" b;
  List.iter Client.kill (b :: peers);
  Server.stop srv;
  Loop.close loop

(* [netd.rekey] closes the tick: it carries the tick's duration, the
   tickets the tick issued, and the organization's entries against
   those the fan-out carried — the joiner's own wraps go by its
   admitting RESYNC only, which [wraps_pruned] counts. Nothing is recorded with
   observability off. *)
let test_rekey_journal () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ()) in
  let port = Server.port srv in
  let clients = ref [] in
  let churn seed =
    let joins = (Server.stats srv).Server.joins in
    clients := Client.connect ~loop { (Client.config ~port) with seed } :: !clients;
    run_until loop (fun () -> (Server.stats srv).Server.joins > joins);
    Server.tick_now srv;
    run_until loop (fun () -> List.for_all Client.is_member !clients)
  in
  churn 1;
  churn 2;
  let rekeys () =
    List.filter (fun e -> e.Journal.name = "netd.rekey") (Journal.events Journal.default)
  in
  Journal.clear Journal.default;
  let before = (Server.stats srv).Server.rekeys in
  churn 3;
  Alcotest.(check int) "the tick rekeyed" (before + 1) (Server.stats srv).Server.rekeys;
  Alcotest.(check int) "nothing recorded with observability off" 0 (List.length (rekeys ()));
  let issued = (Server.stats srv).Server.tickets_issued in
  let pruned = (Server.stats srv).Server.wraps_pruned in
  with_obs true (fun () -> churn 4);
  (match rekeys () with
  | [ e ] ->
      let field k = List.assoc_opt k e.Journal.fields in
      Alcotest.(check bool) "tickets issued this tick" true
        (field "tickets" = Some (Journal.Int ((Server.stats srv).Server.tickets_issued - issued)));
      (match (field "entries", field "wire_entries") with
      | Some (Journal.Int entries), Some (Journal.Int wire) ->
          Alcotest.(check bool) "the joiner's wraps left the fan-out" true (0 < wire && wire < entries);
          Alcotest.(check int) "wraps_pruned counts them" (entries - wire)
            ((Server.stats srv).Server.wraps_pruned - pruned)
      | _ -> Alcotest.fail "entries and wire_entries missing");
      Alcotest.(check bool) "tick_us present" true
        (match field "tick_us" with Some (Journal.Int us) -> us >= 0 | _ -> false)
  | l -> Alcotest.failf "expected one netd.rekey record, got %d" (List.length l));
  List.iter Client.kill !clients;
  Server.stop srv;
  Loop.close loop

(* The live server counts each event once: in [Server.stats], the
   [Client] accessors or the journal. A group that joins, churns and
   rejoins by ticket with observability on must leave no socket-layer
   name in the metric registry, which belongs to the simulation. *)
let test_no_socket_metrics () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ()) in
  let port = Server.port srv in
  let peers = List.init 4 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  with_obs true (fun () ->
      run_until loop (fun () -> List.for_all Client.is_member peers);
      let c = Client.connect ~loop { (Client.config ~port) with seed = 40 } in
      run_until loop (fun () -> Client.is_member c);
      let target = Server.Private.epoch srv in
      Client.leave c;
      run_until loop (fun () -> Server.Private.epoch srv > target);
      let victim = List.hd peers in
      run_until loop (fun () -> Client.export_resumption victim <> None);
      kill_and_rejoin loop srv victim);
  Journal.clear Journal.default;
  Alcotest.(check bool) "a ticket rejoin ran" true ((Server.stats srv).Server.rejoins_0rtt >= 1);
  let socket =
    List.filter
      (fun n ->
        List.exists (fun prefix -> String.starts_with ~prefix n) [ "netd."; "wire."; "rejoin."; "record." ])
      (List.map
         (fun l -> Scanf.sscanf l {|{"type":%S,"name":%S|} (fun _ name -> name))
         (Metrics.to_jsonl Metrics.default))
  in
  Alcotest.(check (list string)) "no socket-layer metric exported" [] socket;
  List.iter Client.kill peers;
  Server.stop srv;
  Loop.close loop

(* The per-node tables are pruned: node ids are never reused, so
   without pruning they would keep a row for every node ever rekeyed.
   500 churn intervals at ~16 members must leave them within a
   constant factor of the live tree. *)
let test_node_rows_bounded () =
  let loop = Loop.create () in
  (* members live 8 intervals: S-period 3 keeps both trees and the DEK
     above them populated *)
  let org = Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 3 } in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org ()) in
  let port = Server.port srv in
  let module O = (val Server.Private.organization srv : Organization.S) in
  (* Every live node lies on some member's path. *)
  let live_nodes () =
    List.fold_left
      (fun acc tr ->
        let nodes = Hashtbl.create 64 in
        List.iter
          (fun m -> List.iter (fun (id, _) -> Hashtbl.replace nodes id ()) (Keytree.path tr m))
          (Keytree.members tr);
        acc + Hashtbl.length nodes)
      0 (O.trees ())
  in
  let seed = ref 0 in
  let join () =
    incr seed;
    Client.connect ~loop { (Client.config ~port) with seed = !seed }
  in
  let members = ref (List.init 16 (fun _ -> join ())) in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 16);
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member !members);
  let worst = ref 0 and prev = ref 0 and checked = ref false in
  for _ = 1 to 500 do
    let joins = (Server.stats srv).Server.joins in
    let fresh = [ join (); join () ] in
    run_until loop (fun () -> (Server.stats srv).Server.joins = joins + 2);
    let leaves = (Server.stats srv).Server.leaves in
    (match !members with
    | a :: b :: rest ->
        Client.leave a;
        Client.leave b;
        members := rest @ fresh
    | _ -> Alcotest.fail "group ran dry");
    run_until loop (fun () -> (Server.stats srv).Server.leaves = leaves + 2);
    Server.tick_now srv;
    run_until loop (fun () -> List.for_all Client.is_member !members);
    let rows = Server.Private.node_rows srv and live = live_nodes () in
    worst := max !worst rows;
    if rows > (4 * live) + 512 then
      Alcotest.failf "%d per-node rows against %d live tree nodes" rows live;
    if rows < !prev && not !checked then begin
      (* This tick pruned. A delta REJOIN right now must still be
         sent only the leaf key, the one path key no rekey refreshes:
         pruning kept every live node's last-change epoch, the DEK
         node's included. *)
      checked := true;
      let victim = List.hd !members in
      let last = Server.rekey_no srv in
      run_until loop (fun () -> Client.last_rekey victim = last);
      Journal.clear Journal.default;
      with_obs true (fun () -> kill_and_rejoin loop srv victim);
      match List.filter (fun e -> e.Journal.name = "netd.rejoin") (Journal.events Journal.default) with
      | [ e ] ->
          Alcotest.(check bool) "delta rejoin" true
            (List.assoc_opt "delta" e.Journal.fields = Some (Journal.Bool true));
          Alcotest.(check bool) "only the leaf key sent" true
            (List.assoc_opt "keys" e.Journal.fields = Some (Journal.Int 1));
          Alcotest.(check bool) "ticket_age present" true
            (match List.assoc_opt "ticket_age" e.Journal.fields with
            | Some (Journal.Int age) -> age >= 0
            | _ -> false)
      | l -> Alcotest.failf "expected one netd.rejoin record, got %d" (List.length l)
    end;
    prev := rows
  done;
  Alcotest.(check bool) "a prune was observed" true !checked;
  (* without pruning every node ever created would keep its row *)
  Alcotest.(check bool) "nodes created outnumber the bound" true
    ((Server.stats srv).Server.joins > !worst + 512);
  List.iter Client.kill !members;
  Server.stop srv;
  Loop.close loop

(* A leaf member of a one-tree group opens a multi-entry rekey by
   range: one MAC over each record, then only the REKEY fields, the
   payload's metadata and the key material of the entries the member
   selects. Sixteen members fill a degree-4 tree; a leave refreshes
   the leaver's parent (wrapped under its three other children) and
   the root (under its four children), seven entries whose key
   material alone is nine blocks. A member uses one or two of them. *)
let test_selective_open () =
  let org = Organization.Scheme_cfg (Scheme.default_config Scheme.One_keytree) in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~org ()) in
  let port = Server.port srv in
  let clients = List.init 16 (fun i -> Client.connect ~loop { (Client.config ~port) with seed = i }) in
  run_until loop (fun () -> List.for_all Client.is_member clients);
  let settled = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c >= settled) clients);
  let leaver = List.hd clients and stayers = List.tl clients in
  let counts c = (Client.Private.blocks_decrypted c, Client.Private.blocks_held c) in
  let before = List.map counts stayers in
  let target = Server.Private.epoch srv in
  Client.leave leaver;
  run_until loop (fun () -> Server.Private.epoch srv > target);
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) stayers);
  let server_tbl = server_trace_tbl srv in
  let server_dek = Hashtbl.find server_tbl last in
  List.iteri
    (fun i (c, (d0, h0)) ->
      let d1, h1 = counts c in
      let decrypted = d1 - d0 and held = h1 - h0 in
      Alcotest.(check bool) (Printf.sprintf "member %d: a multi-entry rekey (%d blocks)" i held) true
        (held >= 9);
      Alcotest.(check bool)
        (Printf.sprintf "member %d: %d of %d blocks decrypted" i decrypted held)
        true
        (decrypted > 0 && decrypted < held);
      check_trace ~server_tbl (Printf.sprintf "member %d" i) c;
      Alcotest.(check string)
        (Printf.sprintf "member %d: the server's DEK" i)
        server_dek
        (snd (List.nth (Client.dek_trace c) (List.length (Client.dek_trace c) - 1))))
    (List.combine stayers before);
  Server.stop srv

(* A member awaiting its RESYNC reply keeps no record, so it opens
   none: had it opened the next rekey's record, its window would hold
   that seq marked when the reply (same DEK) leaves the member one
   rekey behind, and the NACK's answer — the very same record — would
   be refused as a replay. [c] runs on a loop of its own, so that
   record reaches it (handed over as [o] received it) while its RESYNC
   reply still waits unread. Its drop model loses every record whose
   rekey it has not NACKed, so it can complete that rekey only from
   the NACK's answer. *)
let test_resync_wait_opens_nothing () =
  let org = Organization.Scheme_cfg (Scheme.default_config Scheme.One_keytree) in
  let loop = Loop.create () and lc = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org ()) in
  let port = Server.port srv in
  let run_both cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Loop.step ~max_wait:0.001 loop;
      Loop.step ~max_wait:0.001 lc
    done;
    if not (cond ()) then Alcotest.fail "run_both: condition not reached before timeout"
  in
  let joins n = (Server.stats srv).Server.joins = n in
  let o = Client.connect ~loop { (Client.config ~port) with seed = 1 } in
  let c =
    Client.connect ~loop:lc
      { (Client.config ~port) with seed = 2; drop = Some (Loss_model.bernoulli 1.0) }
  in
  run_both (fun () -> joins 2);
  Server.tick_now srv;
  let n = Server.rekey_no srv in
  run_both (fun () -> Client.last_rekey o = n && Client.last_rekey c = n && Client.is_member c);
  let j = Client.connect ~loop { (Client.config ~port) with seed = 3 } in
  run_until loop (fun () -> joins 3);
  (* [c] asks to be resynced; the server answers at rekey [n] *)
  Client.Private.request_resync c;
  run_until loop (fun () -> (Server.stats srv).Server.resyncs = 1);
  (* rekey n+1, sealed under the DEK [c] holds and will hold again *)
  let records = ref [] in
  Client.on_sealed o (fun ~epoch ~seq ~ct -> records := Msg.Sealed { epoch; seq; ct } :: !records);
  Server.tick_now srv;
  run_until loop (fun () -> Client.last_rekey o = n + 1);
  Alcotest.(check bool) "c still awaits its RESYNC reply" true (Client.phase c = Client.Resync_wait);
  let discarded = Client.Private.pending_discarded c in
  List.iter (Client.Private.deliver c) (List.rev !records);
  Alcotest.(check int) "discarded unopened" (List.length !records)
    (Client.Private.pending_discarded c - discarded);
  (* [c] reads the reply, then loses the fan-out's copy of rekey n+1 *)
  run_both (fun () ->
      Client.is_member c && Client.Private.frames_dropped c + Client.replays_dropped c > 0);
  Alcotest.(check int) "c resumed at rekey n" n (Client.last_rekey c);
  (* rekey n+2's record, under a DEK [c] lacks, makes it NACK n+1 *)
  Client.leave j;
  run_until loop (fun () -> (Server.stats srv).Server.leaves = 1);
  Server.tick_now srv;
  run_both (fun () -> Client.last_rekey c >= n + 1);
  Alcotest.(check bool) "rekey n+1 completed from the NACK's answer" true
    (Client.nacks_sent c >= 1 && (Server.stats srv).Server.nack_frames >= 1);
  Alcotest.(check int) "no replay refused" 0 (Client.replays_dropped c);
  Alcotest.(check int) "no second RESYNC" 1 (Client.resyncs c);
  List.iter Client.kill [ c; o; j ];
  Server.stop srv;
  Loop.close lc

let () =
  Alcotest.run "netd"
    [
      ( "e2e",
        [
          Alcotest.test_case "loopback smoke" `Quick test_smoke;
          Alcotest.test_case "200 clients, 20+ intervals, crash+resync" `Slow test_churn_200;
          Alcotest.test_case "lossy client recovers via NACK/RETX" `Quick test_lossy_client;
          Alcotest.test_case "a returning DEK continues its record seq" `Quick
            test_recurring_dek_seq;
          Alcotest.test_case "slow client evicted" `Slow test_slow_client_eviction;
          Alcotest.test_case "grace eviction of silent members" `Quick test_grace_eviction;
          Alcotest.test_case "0-RTT ticket rejoin, zero full RESYNCs" `Quick test_rejoin_0rtt;
          Alcotest.test_case "evicted ticket locked out" `Quick test_eviction_lockout;
          Alcotest.test_case "a ticket of any age rejoins 0-RTT" `Quick
            test_old_ticket_rejoin;
          Alcotest.test_case "composed org served on v2" `Quick test_composed_served;
          Alcotest.test_case "no socket metric registered" `Quick test_no_socket_metrics;
          Alcotest.test_case "admission reply carries the ticket" `Quick test_ticket_in_admission;
          Alcotest.test_case "a foreign ticket falls back to RESYNC" `Quick
            test_foreign_ticket_resync;
          Alcotest.test_case "a leaf decrypts only what it uses" `Quick test_selective_open;
          Alcotest.test_case "awaiting RESYNC, a record stays unopened" `Quick
            test_resync_wait_opens_nothing;
        ] );
      ( "storm",
        [
          Alcotest.test_case "no faults: every reconnect 0-RTT (domains 1, 2, 4)" `Quick
            test_reconnect_storm;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded fan-out byte-identical to single" `Quick
            test_sharded_byte_identical;
          Alcotest.test_case "sharded slow client evicted" `Slow test_sharded_slow_eviction;
          Alcotest.test_case "observability byte-invisible" `Quick test_obs_byte_invisible;
          Alcotest.test_case "a lane write to a dead peer" `Quick test_lane_dead_peer;
        ] );
      ( "mcast",
        [
          Alcotest.test_case "udp fan-out byte-identical to tcp (domains 1 and 4)" `Quick
            test_udp_byte_identical;
          Alcotest.test_case "faulty udp lane reconverges via NACK/RETX" `Quick
            test_udp_lossy_convergence;
          Alcotest.test_case "quiet-tick heartbeat recovers tail loss" `Quick
            test_udp_heartbeat_tail_loss;
          Alcotest.test_case "2-entry rekey under 400 bytes on tcp and udp" `Quick
            test_small_rekey_unpadded;
          Alcotest.test_case "subscribers share one receive buffer" `Quick
            test_mcast_shared_recv_buffer;
          Alcotest.test_case "heartbeat repairs a rekey the member dropped" `Quick
            test_udp_drop_repaired_by_heartbeat;
          Alcotest.test_case "an empty datagram is counted, not a dry socket" `Quick
            test_udp_empty_datagram;
          Alcotest.test_case "a held datagram is released when the socket is dry" `Quick
            test_udp_reorder_hold_released;
        ] );
      ( "tickets",
        oracle_cases
        @ [
            Alcotest.test_case "reshaped path reissued before a 0-RTT rejoin" `Quick
              test_reshaped_rejoin;
            Alcotest.test_case "queue member reshaped by a composed DEK drop" `Quick
              test_queue_member_reshaped;
            Alcotest.test_case "netd.rekey carries tick_us and tickets" `Quick
              test_rekey_journal;
            Alcotest.test_case "per-node rows bounded over 500 churn intervals" `Slow
              test_node_rows_bounded;
            Alcotest.test_case "a current ticket is kept across rejoins" `Quick
              test_current_ticket_kept;
            Alcotest.test_case "an old ticket rejoins by delta, no mint" `Quick
              test_old_ticket_delta;
            Alcotest.test_case "path reshaped while dark: delta rejoin" `Quick
              test_reshaped_dark_delta;
            Alcotest.test_case "a member moved while dark gets the full path" `Quick
              test_moved_dark_full;
          ] );
      ( "dek log",
        [ Alcotest.test_case "round-trips the list semantics" `Quick test_dek_log_roundtrip ] );
      ( "loop",
        [
          Alcotest.test_case "500 idle fds, one dispatch" `Quick test_loop_idle;
          Alcotest.test_case "removal suppresses a batched event" `Quick
            test_loop_remove_in_batch;
          Alcotest.test_case "partial write arms, drain disarms" `Quick test_loop_partial_write;
          Alcotest.test_case "reused fd number dispatches afresh" `Quick test_loop_fd_reuse;
          Alcotest.test_case "overflowing ready set served in two steps" `Quick
            test_loop_overflow;
          Alcotest.test_case "create/close leaks no fd" `Quick test_loop_no_leak;
          Alcotest.test_case "sub-millisecond timer fires without spinning" `Quick
            test_loop_timer_rounding;
          Alcotest.test_case "tcp fan-out to 64 makes no interest change" `Quick
            test_loop_fanout_no_interest;
          Alcotest.test_case "a queued flight leaves in one write" `Quick test_conn_gathered_flush;
          Alcotest.test_case "two frames and a FIN: messages, then Eof" `Quick
            test_conn_short_read_eof;
          Alcotest.test_case "a burst over the scratch arrives whole" `Quick
            test_conn_burst_over_scratch;
        ] );
      ( "config",
        [
          Alcotest.test_case "version-1 frame refused" `Quick test_version_1_refused;
          Alcotest.test_case "version-3 frame refused" `Quick test_version_3_refused;
          Alcotest.test_case "plaintext REKEY refused by client" `Quick
            test_plaintext_rekey_refused;
          Alcotest.test_case "one flight of replies, farewell before the close" `Quick
            test_held_farewell;
          Alcotest.test_case "an unassigned ERROR code is a generic error" `Quick
            test_unassigned_error_code;
          Alcotest.test_case "capacity floor serves a composed rekey" `Quick
            test_capacity_floor;
          Alcotest.test_case "raw JOIN admitted by RESYNC" `Quick test_raw_join_admitted;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "NACK flooder capped by resync budget" `Quick
            test_conform_nack_flood;
          Alcotest.test_case "NACK answer: each fan-out frame once" `Quick
            test_nack_duplicate_seqs;
          Alcotest.test_case "evictee keeps transmitting, stays locked out" `Quick
            test_conform_evictee_transmit;
          Alcotest.test_case "ticket replayed from three connections" `Quick
            test_conform_ticket_replay;
          Alcotest.test_case "version-mismatched speakers refused" `Quick
            test_conform_version_refused;
        ] );
    ]
