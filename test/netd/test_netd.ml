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
module Dgram = Gkm_wire.Dgram
module Packet = Gkm_transport.Packet
module Record = Gkm_record.Record
module Dek_log = Gkm_netd.Dek_log

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
    | Error e -> Alcotest.fail e
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
      let target = Server.epoch srv in
      Client.leave c;
      run_until loop (fun () -> Server.epoch srv > target);
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
   its resumption ticket — REJOIN pipelined behind HELLO, no RESYNC
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
    let target = Server.epoch srv in
    run_until loop (fun () -> Server.epoch srv > target);
    incr intervals
  done;
  Alcotest.(check bool) "kill/reconnect exercised" true (!killed && !recovered);
  run_until loop (fun () -> List.for_all Client.is_member !churners);
  (* quiesce: trailing TT migrations keep producing rekeys for ~s_period
     intervals after the last join — wait until the epoch stops moving
     before sampling the rekey_no the survivors must catch up to *)
  let last_epoch = ref (-1) and since = ref (Unix.gettimeofday ()) in
  run_until ~timeout:60.0 loop (fun () ->
      let e = Server.epoch srv in
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
   NACK/RETX (and possibly RESYNC) yet still track the exact DEK
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
  for i = 0 to 19 do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 500 + i } in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
  done;
  run_until loop (fun () -> Client.rekeys_completed lossy >= 15);
  Alcotest.(check bool) "the loss model actually dropped frames" true
    (Client.frames_dropped lossy > 0);
  Alcotest.(check bool) "recovery traffic flowed" true
    (Client.nacks_sent lossy > 0 || Client.resyncs lossy > 0);
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "lossy" lossy;
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "peer%d" i) c) peers;
  Server.stop srv

(* A client that joins and then never reads again must hit the hard
   backpressure tier and be evicted — departed from the organization,
   not just disconnected. Runs both single-threaded ([domains = 1],
   backpressure measured inline at fan-out) and sharded ([domains = 2],
   backpressure measured by the shard that owns the stalled fd, with
   the eviction travelling back to the tick domain as an event). *)
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
  write_frame fd (Msg.Hello { lo = Msg.version; hi = Msg.version });
  (match read_frame loop (Frame.decoder ()) fd with
  | Msg.Hello_ack _ -> ()
  | m -> Alcotest.failf "expected HELLO_ACK, got %s" (Msg.tag_name (Msg.tag m)));
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
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
  done;
  run_until loop (fun () -> (Server.stats srv).evictions_grace >= 1);
  run_until loop (fun () -> Server.org_size srv = 4);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "peer%d" i) c) peers;
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
  run_until loop (fun () -> Client.has_ticket victim);
  let pre_member = Client.member victim in
  Client.kill victim;
  (* the group moves on while the victim is dark *)
  for i = 0 to 2 do
    let c = Client.connect ~loop { (Client.config ~port) with seed = 600 + i } in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
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
  let target = Server.epoch srv in
  Client.leave c;
  run_until loop (fun () -> Server.epoch srv > target);
  let last = Server.rekey_no srv in
  run_until loop (fun () ->
      List.for_all (fun c -> Client.last_rekey c = last) (victim :: peers));
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "victim" victim;
  Server.stop srv

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
  run_until loop (fun () -> Client.has_ticket doomed);
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
   the wide (i64) packet codec; clients track the composed DEK
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
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
  done;
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) clients);
  let server_tbl = server_trace_tbl srv in
  List.iteri
    (fun i c -> check_trace ~server_tbl (Printf.sprintf "composed%d" i) c)
    clients;
  Server.stop srv

(* The server speaks one wire version: a HELLO whose range excludes it,
   older or newer, is refused with a readable version error. *)
let hello_refused ~lo ~hi () =
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ()) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  write_frame fd (Msg.Hello { lo; hi });
  (match read_frame loop (Frame.decoder ()) fd with
  | Msg.Error_msg { code; _ } -> Alcotest.(check int) "version error code" Msg.err_version code
  | m -> Alcotest.failf "expected ERROR, got %s" (Msg.tag_name (Msg.tag m)));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop srv

let test_old_hello_refused = hello_refused ~lo:1 ~hi:(Msg.version - 1)
let test_version_rejected = hello_refused ~lo:99 ~hi:200

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
  (match read_frame loop dec fd with
  | Msg.Hello _ ->
      write_frame fd
        (Msg.Hello_ack { version = Msg.version; tp_ms = 1000; max_frame = 1 lsl 20; capacity = 512 })
  | m -> Alcotest.failf "expected HELLO, got %s" (Msg.tag_name (Msg.tag m)));
  let key = Gkm_crypto.Key.fresh (Gkm_crypto.Prng.create 5) in
  (match read_frame loop dec fd with
  | Msg.Join _ ->
      write_frame fd
        (Msg.Join_ack { member = 1; rekey_no = 0; epoch = 0; root = 7; path = [ (7, key) ] })
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

(* The sharded fan-out must be a pure transport change: the same
   deterministic scenario (seeded org, manual ticks, churn gated on
   server-observable state so the organization sees the identical
   operation sequence) run under [domains = 1] and [domains = 4] must
   deliver every member the byte-identical stream of sealed records —
   same epochs, same record seqs, same ciphertexts. That holds because
   encoding AND sealing happen on the tick domain in seq order in both
   modes; the shards only carry finished bytes. *)
let lockstep_run ?group ~domains () =
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
      (cfg ~tp:3600.0 ~org ~domains ?transport:(Option.map Server.udp group) ())
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
     datagram for a member's own admission tick can race its JOIN_ACK
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
        admit_epoch.(i) <- Client.epoch c;
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
     Alcotest.(check int) "no unicast fallback" 0 st.Server.mcast_fallback_unicast
   end);
  (* No recovery traffic may have fired: any NACK or RESYNC means the
     scenario was not the quiet lockstep the byte-compare assumes. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "member%d sent no NACK" i) 0 (Client.nacks_sent c);
      Alcotest.(check int) (Printf.sprintf "member%d never resynced" i) 0 (Client.resyncs c))
    clients;
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

(* -------- the UDP multicast data plane -------- *)

let require_mcast () = if not (Mcast.available ()) then Alcotest.skip ()

(* Moving the sealed fan-out to the multicast datagram must be a pure
   transport change, exactly like sharding: the same lockstep scenario
   over tcp and over udp (at domains 1 AND 4) delivers every member
   the byte-identical sealed records — same epoch labels, same record
   seqs, same ciphertexts — because both paths carry the one
   generation sealed on the tick domain. *)
let test_udp_byte_identical () =
  require_mcast ();
  let sealed_t, deks_t, sdek_t, _ = lockstep_run ~domains:1 () in
  let sealed_u1, deks_u1, sdek_u1, _ =
    lockstep_run ~group:(Mcast.ephemeral_group ~seed:0xA1) ~domains:1 ()
  in
  let sealed_u4, deks_u4, sdek_u4, _ =
    lockstep_run ~group:(Mcast.ephemeral_group ~seed:0xA4) ~domains:4 ()
  in
  check_runs_identical ~tag:"tcp/udp@1" (sealed_t, deks_t, sdek_t) (sealed_u1, deks_u1, sdek_u1);
  check_runs_identical ~tag:"tcp/udp@4" (sealed_t, deks_t, sdek_t) (sealed_u4, deks_u4, sdek_u4)

(* A small rekey must be small on the wire: a payload padded to the
   1 KiB capacity makes a 2-entry rekey's SEALED frame 1094 bytes.
   Steady churn at the serving default capacity; member0 opens every
   record it is sent under the DEK it holds, so the sizes checked
   belong to rekeys known to carry two entries. Returns (entries,
   datagram bytes, SEALED frame bytes) per single-record rekey, and
   the server's stats. *)
let small_rekey_sizes ?group () =
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
    | Some dek when epoch = Client.epoch c -> (
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
                  ( List.length es,
                    Dgram.encoded_size [ (seq, ct) ],
                    Bytes.length (Frame.encode (Msg.Sealed { epoch; seq; ct })) )
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
  (!sizes, st)

let test_small_rekey_unpadded () =
  let check tag sizes pick =
    let two = List.filter (fun (n, _, _) -> n = 2) sizes in
    Alcotest.(check bool) (tag ^ ": 2-entry rekeys observed") true (two <> []);
    List.iter
      (fun s ->
        let b = pick s in
        Alcotest.(check bool)
          (Printf.sprintf "%s of a 2-entry rekey: %d B < 400" tag b)
          true (b < 400))
      two
  in
  let sizes, _ = small_rekey_sizes () in
  check "tcp SEALED frame" sizes (fun (_, _, frame) -> frame);
  if Mcast.available () then begin
    let sizes, st = small_rekey_sizes ~group:(Mcast.ephemeral_group ~seed:0xA2) () in
    check "udp datagram" sizes (fun (_, dgram, _) -> dgram);
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

(* Injected datagram faults on the live socket path: Bernoulli loss on
   the server's send shim plus a hostile receive shim on one client
   (heavier loss, reordering, duplication). Every member must keep
   converging on the server's exact DEK sequence — gaps recovered by
   NACK over the TCP control channel, duplicates absorbed by the
   replay window — with RESYNC fallbacks staying bounded. *)
let test_udp_lossy_convergence () =
  require_mcast ();
  let group = Mcast.ephemeral_group ~seed:0xBEEF in
  let fault = Netem.cfg ~loss:(Loss_model.bernoulli 0.01) ~reorder:0.2 ~dup:0.2 () in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:0.01 ~transport:(Server.udp ~fault group) ()) in
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
        Client.connect ~loop { (Client.config ~port) with seed = i; mcast = Some group })
  in
  run_until loop (fun () -> List.for_all Client.is_member (lossy :: peers));
  for i = 0 to 29 do
    let c =
      Client.connect ~loop { (Client.config ~port) with seed = 500 + i; mcast = Some group }
    in
    run_until loop (fun () -> Client.is_member c);
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
  done;
  run_until loop (fun () ->
      List.for_all (fun c -> Client.rekeys_completed c >= 15) (lossy :: peers));
  let st = Server.stats srv in
  Alcotest.(check bool) "datagrams were multicast" true (st.Server.mcast_datagrams > 0);
  Alcotest.(check bool) "mcast bytes counted" true (st.Server.mcast_bytes > 0);
  Alcotest.(check bool) "lossy client heard the group" true
    (Client.mcast_datagrams_rx lossy > 0);
  Alcotest.(check bool) "recovery traffic flowed" true
    (Client.nacks_sent lossy + Client.resyncs lossy > 0);
  Alcotest.(check bool) "resyncs bounded" true (Client.resyncs lossy <= 5);
  Alcotest.(check bool) "injected duplicates hit the replay window" true
    (List.exists (fun c -> Client.replays_dropped c > 0) (lossy :: peers));
  let server_tbl = server_trace_tbl srv in
  check_trace ~server_tbl "lossy" lossy;
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
    let target = Server.epoch srv in
    Client.leave c;
    run_until loop (fun () -> Server.epoch srv > target)
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
  f loop srv;
  List.iter Client.kill herd;
  Server.stop srv

let check_verdict (v : Cohort.verdict) =
  Alcotest.(check bool) (v.name ^ ": " ^ v.detail) true v.ok

let test_conform_nack_flood () =
  with_hostile_server ~resync_budget:3 (fun loop srv ->
      check_verdict (Cohort.nack_flood ~loop ~port:(Server.port srv) ~budget:3 ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "resyncs_denied >= 1" true (st.Server.resyncs_denied >= 1);
      Alcotest.(check bool) "resyncs bounded by budget" true (st.Server.resyncs <= 3);
      Alcotest.(check bool) "flood cost a protocol error" true (st.Server.protocol_errors >= 1))

let test_conform_evictee_transmit () =
  with_hostile_server (fun loop srv ->
      check_verdict (Cohort.evictee_lockout ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "dead ticket rejected" true (st.Server.ticket_rejects >= 1);
      Alcotest.(check bool) "dead resync cost a protocol error" true
        (st.Server.protocol_errors >= 1))

let test_conform_ticket_replay () =
  with_hostile_server (fun loop srv ->
      check_verdict (Cohort.ticket_replay ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "2 bearer re-binds" true (st.Server.rejoins_full >= 2);
      Alcotest.(check bool) "corrupt ticket soft-rejected" true (st.Server.ticket_rejects >= 1))

let test_conform_version_refused () =
  with_hostile_server (fun loop srv ->
      check_verdict (Cohort.version_refused ~loop ~port:(Server.port srv) ~timeout:30.0);
      let st = Server.stats srv in
      Alcotest.(check bool) "both refusals counted" true (st.Server.protocol_errors >= 2))

(* The DEK trace log against the boxed list it replaced: the same
   (rekey_no, fingerprint) pairs, oldest first, the no-key [""]
   included, across many chunk boundaries. *)
let test_dek_log_roundtrip () =
  let log = Dek_log.create () in
  let rng = Random.State.make [| 7 |] in
  let reference = ref [] in
  for i = 0 to 12_345 do
    let rekey_no = if i = 12_345 then 0x7FFF_FFFF else i + Random.State.int rng 3 in
    let fp =
      if Random.State.int rng 7 = 0 then ""
      else Printf.sprintf "%08x" (Random.State.bits rng land 0xFFFF_FFFF)
    in
    Dek_log.add log ~rekey_no fp;
    reference := (rekey_no, fp) :: !reference
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

let dispatched loop = (Loop.counters loop).Loop.dispatched

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
  let k0 = (Loop.counters loop).Loop.interest_changes in
  Gkm_netd.Conn.enqueue_frame c (Bytes.make (256 * 1024) 'z');
  ignore (Gkm_netd.Conn.write_through loop c);
  Alcotest.(check bool) "partial write" true (Gkm_netd.Conn.out_bytes c > 0);
  Alcotest.(check int) "write interest armed" (k0 + 1) (Loop.counters loop).Loop.interest_changes;
  let buf = Bytes.create 65536 and got = ref 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Gkm_netd.Conn.out_bytes c > 0 && Unix.gettimeofday () < deadline do
    (try got := !got + Unix.read b buf 0 (Bytes.length buf)
     with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
    Loop.step ~max_wait:0.01 loop
  done;
  Alcotest.(check int) "outbox drained" 0 (Gkm_netd.Conn.out_bytes c);
  Alcotest.(check int) "write interest disarmed" (k0 + 2)
    (Loop.counters loop).Loop.interest_changes;
  let d0 = dispatched loop in
  Loop.step ~max_wait:0.05 loop;
  Alcotest.(check int) "idle step dispatches nothing" 0 (dispatched loop - d0);
  Loop.remove_fd loop a;
  Gkm_netd.Conn.close c;
  Unix.close b;
  Loop.close loop

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
  let n = Loop.max_events + (Loop.max_events / 2) in
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
  Alcotest.(check int) "first step fills the buffer" Loop.max_events
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
  Loop.at loop ~time:due (fun () -> fired := Loop.now loop);
  let s0 = (Loop.counters loop).Loop.steps in
  Loop.run loop ~until:(fun () -> not (Float.is_nan !fired));
  let steps = (Loop.counters loop).Loop.steps - s0 in
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
  let k0 = (Loop.counters loop).Loop.interest_changes in
  Server.tick_now srv;
  let target = Server.rekey_no srv in
  run_until loop (fun () ->
      Client.is_member joiner && List.for_all (fun c -> Client.last_rekey c = target) members);
  Alcotest.(check int) "no write-interest change" 0
    ((Loop.counters loop).Loop.interest_changes - k0);
  List.iter Client.kill (joiner :: members);
  Server.stop srv;
  Loop.close loop

(* ---- Ticket reissue: the rekey's ticket pass against a full sweep ---- *)

module Keytree = Gkm_keytree.Keytree
module Journal = Gkm_obs.Journal
module Obs = Gkm_obs.Obs

(* Crash-kill [victim] once it has read everything the server sent it
   (tickets included), then bring it back by ticket. *)
let kill_and_rejoin loop srv victim =
  let drained = ref false in
  Client.drain victim (fun () -> drained := true);
  run_until loop (fun () -> !drained);
  Client.kill victim;
  run_until loop (fun () ->
      not (List.mem_assoc (Client.member victim) (Server.bound_tickets srv)));
  Client.reconnect victim;
  run_until loop (fun () -> Client.is_member victim)

(* The staleness predicate of the per-tick sweep over every connected
   member that the ticket pass replaces: no ticket, a digest that no
   longer matches the member's path, or [rewrap] epochs of age. *)
let ticket_stale srv ~rewrap member ticket =
  let module O = (val Server.organization srv : Organization.S) in
  O.is_member member
  &&
  match ticket with
  | None -> true
  | Some (issued, digest) ->
      let now = Record.Ticket.path_digest (List.map fst (O.member_path member)) in
      (not (Bytes.equal digest now)) || Server.epoch srv - issued >= rewrap

(* One tick under the oracle: the tick must issue exactly the tickets
   the brute-force sweep would have (each connected member whose
   pre-tick ticket is stale against the post-tick tree, admissions and
   migrations included), and leave no connected member stale. *)
let oracle_tick srv ~rewrap ~label =
  let before = Hashtbl.create 64 in
  List.iter (fun (m, tk) -> Hashtbl.replace before m tk) (Server.bound_tickets srv);
  let issued0 = (Server.stats srv).Server.tickets_issued in
  Server.tick_now srv;
  let after = Server.bound_tickets srv in
  let sweep =
    List.length
      (List.filter
         (fun (m, _) -> ticket_stale srv ~rewrap m (Option.join (Hashtbl.find_opt before m)))
         after)
  in
  Alcotest.(check int)
    (label ^ ": tickets issued = the sweep's")
    sweep
    ((Server.stats srv).Server.tickets_issued - issued0);
  List.iter
    (fun (m, tk) ->
      if ticket_stale srv ~rewrap m tk then
        Alcotest.failf "%s: connected member %d holds a stale ticket" label m)
    after

(* Randomized churn — joins, leaves, crash-kills with ticket REJOINs,
   and (S-period 3) migrations — on one organization, 60 ticks, every
   tick checked by [oracle_tick]; rewrap 3 makes age-based reissues
   routine. Ends with every live member on the server's DEK trace. *)
let oracle_churn selector () =
  let spec =
    match Organization.spec_of_string ~s_period:3 selector with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let rewrap = 3 in
  let loop = Loop.create () in
  let srv = Server.create ~loop { (cfg ~tp:3600.0 ~org:spec ()) with ticket_rewrap = rewrap } in
  let port = Server.port srv in
  let rng = Random.State.make [| Hashtbl.hash selector |] in
  let seed = ref 0 in
  let join () =
    incr seed;
    let joins = (Server.stats srv).Server.joins in
    let c =
      Client.connect ~loop
        {
          (Client.config ~port) with
          seed = !seed;
          cls = (if Random.State.bool rng then `Short else `Long);
          loss = (if Random.State.bool rng then 0.2 else 0.01);
        }
    in
    run_until loop (fun () -> (Server.stats srv).Server.joins > joins);
    c
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let bound c = List.mem_assoc (Client.member c) (Server.bound_tickets srv) in
  let live = ref (List.init 8 (fun _ -> join ())) and dark = ref [] in
  Server.tick_now srv;
  run_until loop (fun () -> List.for_all Client.is_member !live);
  for tick = 1 to 60 do
    List.iter
      (fun c ->
        if Random.State.bool rng then begin
          Client.reconnect c;
          run_until loop (fun () -> Client.is_member c);
          dark := List.filter (fun d -> d != c) !dark;
          live := c :: !live
        end)
      !dark;
    for _ = 1 to Random.State.int rng 3 do
      live := join () :: !live
    done;
    let members = List.filter Client.is_member !live in
    if List.length members > 6 && Random.State.bool rng then begin
      let c = pick members in
      let leaves = (Server.stats srv).Server.leaves in
      Client.leave c;
      run_until loop (fun () -> (Server.stats srv).Server.leaves > leaves);
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
    oracle_tick srv ~rewrap ~label:(Printf.sprintf "%s tick %d" selector tick);
    run_until loop (fun () -> List.for_all Client.is_member !live)
  done;
  List.iter
    (fun c ->
      Client.reconnect c;
      run_until loop (fun () -> Client.is_member c);
      live := c :: !live)
    !dark;
  let c = join () in
  oracle_tick srv ~rewrap ~label:(selector ^ " final");
  let last = Server.rekey_no srv in
  run_until loop (fun () -> List.for_all (fun c -> Client.last_rekey c = last) (c :: !live));
  let s = Server.stats srv in
  Alcotest.(check bool) (selector ^ ": rejoined by ticket") true (s.Server.rejoins_0rtt >= 1);
  let server_tbl = server_trace_tbl srv in
  List.iteri (fun i c -> check_trace ~server_tbl (Printf.sprintf "%s member %d" selector i) c) !live;
  List.iter Client.kill (c :: !live);
  Server.stop srv;
  Loop.close loop

let oracle_cases =
  List.map
    (fun sel -> Alcotest.test_case (sel ^ ": ticket pass = full sweep") `Quick (oracle_churn sel))
    [ "one"; "qt"; "tt"; "pt"; "loss:0.05"; "random:2"; "composed"; "composed:qt" ]

(* A connected member whose path is reshaped must hold the reshaped
   path's ticket, or its next REJOIN falls back to the full path. Two
   reshapes under TT (S-period 2): a sibling leaf departs, so the
   collapse re-parents the victim's leaf; then an S->L migration moves
   a second victim. After each, the victim crash-kills and REJOINs. *)
let test_reshaped_rejoin () =
  let spec =
    Organization.Scheme_cfg { (Scheme.default_config Scheme.Tt) with s_period = 2 }
  in
  let loop = Loop.create () in
  let srv = Server.create ~loop (cfg ~tp:3600.0 ~org:spec ()) in
  let port = Server.port srv in
  let module O = (val Server.organization srv : Organization.S) in
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
  let rejoin = kill_and_rejoin loop srv in
  (* 1. a victim whose parent holds exactly it and one sibling leaf *)
  let parent m = fst (List.nth (Keytree.path l_tree m) 1) in
  let victim, sibling =
    let pair c =
      let m = Client.member c in
      match Keytree.members_under l_tree (parent m) with
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
  rejoin victim;
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
  rejoin mover;
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
   no tree holds the member. *)
let test_queue_member_reshaped () =
  let spec =
    match Organization.spec_of_string ~s_period:10 "composed:qt" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let rewrap = 64 in
  let loop = Loop.create () in
  let srv = Server.create ~loop { (cfg ~tp:3600.0 ~org:spec ()) with ticket_rewrap = rewrap } in
  let port = Server.port srv in
  let module O = (val Server.organization srv : Organization.S) in
  let queued = Client.connect ~loop { (Client.config ~port) with seed = 1; loss = 0.01 } in
  let other = Client.connect ~loop { (Client.config ~port) with seed = 2; loss = 0.2 } in
  run_until loop (fun () -> (Server.stats srv).Server.joins = 2);
  oracle_tick srv ~rewrap ~label:"admission";
  run_until loop (fun () -> Client.is_member queued && Client.is_member other);
  let path () = List.map fst (O.member_path (Client.member queued)) in
  Alcotest.(check int) "queue leaf, band DEK, composed DEK" 3 (List.length (path ()));
  Client.leave other;
  run_until loop (fun () -> (Server.stats srv).Server.leaves = 1);
  oracle_tick srv ~rewrap ~label:"other band empties";
  Alcotest.(check int) "the composed DEK is gone" 2 (List.length (path ()));
  let last = Server.rekey_no srv in
  run_until loop (fun () -> Client.last_rekey queued = last);
  kill_and_rejoin loop srv queued;
  let s = Server.stats srv in
  Alcotest.(check int) "0-RTT rejoin" 1 s.Server.rejoins_0rtt;
  Alcotest.(check int) "no full-path rejoin" 0 s.Server.rejoins_full;
  Client.kill queued;
  Server.stop srv;
  Loop.close loop

(* [netd.rekey] closes the tick: it carries the tick's duration and
   the tickets the tick issued. Nothing is recorded with observability
   off. *)
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
  Obs.with_enabled true (fun () -> churn 4);
  (match rekeys () with
  | [ e ] ->
      let field k = List.assoc_opt k e.Journal.fields in
      Alcotest.(check bool) "tickets issued this tick" true
        (field "tickets" = Some (Journal.Int ((Server.stats srv).Server.tickets_issued - issued)));
      Alcotest.(check bool) "tick_us present" true
        (match field "tick_us" with Some (Journal.Int us) -> us >= 0 | _ -> false)
  | l -> Alcotest.failf "expected one netd.rekey record, got %d" (List.length l));
  List.iter Client.kill !clients;
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
  let module O = (val Server.organization srv : Organization.S) in
  let live_nodes () =
    List.fold_left
      (fun acc tr -> if Keytree.size tr = 0 then acc else acc + (Keytree.depth_stats tr).node_count)
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
    let rows = Server.node_rows srv and live = live_nodes () in
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
      Obs.with_enabled true (fun () -> kill_and_rejoin loop srv victim);
      match List.filter (fun e -> e.Journal.name = "netd.rejoin") (Journal.events Journal.default) with
      | [ e ] ->
          Alcotest.(check bool) "delta rejoin" true
            (List.assoc_opt "delta" e.Journal.fields = Some (Journal.Bool true));
          Alcotest.(check bool) "only the leaf key sent" true
            (List.assoc_opt "keys" e.Journal.fields = Some (Journal.Int 1))
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

let () =
  Alcotest.run "netd"
    [
      ( "e2e",
        [
          Alcotest.test_case "loopback smoke" `Quick test_smoke;
          Alcotest.test_case "200 clients, 20+ intervals, crash+resync" `Slow test_churn_200;
          Alcotest.test_case "lossy client recovers via NACK/RETX" `Quick test_lossy_client;
          Alcotest.test_case "slow client evicted" `Slow test_slow_client_eviction;
          Alcotest.test_case "grace eviction of silent members" `Quick test_grace_eviction;
          Alcotest.test_case "0-RTT ticket rejoin, zero full RESYNCs" `Quick test_rejoin_0rtt;
          Alcotest.test_case "evicted ticket locked out" `Quick test_eviction_lockout;
          Alcotest.test_case "composed org served on v2" `Quick test_composed_served;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded fan-out byte-identical to single" `Quick
            test_sharded_byte_identical;
          Alcotest.test_case "sharded slow client evicted" `Slow test_sharded_slow_eviction;
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
        ] );
      ( "config",
        [
          Alcotest.test_case "older-version hello refused" `Quick test_old_hello_refused;
          Alcotest.test_case "bad version rejected" `Quick test_version_rejected;
          Alcotest.test_case "plaintext REKEY refused by client" `Quick
            test_plaintext_rekey_refused;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "NACK flooder capped by resync budget" `Quick
            test_conform_nack_flood;
          Alcotest.test_case "evictee keeps transmitting, stays locked out" `Quick
            test_conform_evictee_transmit;
          Alcotest.test_case "ticket replayed from three connections" `Quick
            test_conform_ticket_replay;
          Alcotest.test_case "version-mismatched speakers refused" `Quick
            test_conform_version_refused;
        ] );
    ]
