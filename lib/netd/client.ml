module Key = Gkm_crypto.Key
module Aead = Gkm_crypto.Aead
module Codec = Gkm_crypto.Codec
module Prng = Gkm_crypto.Prng
module Member = Gkm_lkh.Member
module Packet = Gkm_transport.Packet
module Loss_model = Gkm_net.Loss_model
module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Record = Gkm_record.Record

type config = {
  host : string;
  port : int;
  cls : Msg.cls;
  loss : float;
  drop : Loss_model.t option;  (** simulated loss applied to REKEY frames only *)
  seed : int;
  resume : bytes option;  (** exported resumption blob to rejoin from *)
  mcast : Mcast.group option;  (** subscribe to the UDP data plane *)
  mcast_fault : Gkm_net.Netem.cfg;
      (** receive-side datagram faults (loss/reorder/duplication) *)
}

let config ~port =
  {
    host = "127.0.0.1";
    port;
    cls = `Long;
    loss = 0.0;
    drop = None;
    seed = 0;
    resume = None;
    mcast = None;
    mcast_fault = Gkm_net.Netem.none;
  }

type phase =
  | Connecting
  | Rejoin_wait
  | Joining
  | Resync_wait
  | Member
  | Leaving
  | Closed

(* One in-flight rekey being reassembled. Entries are deepest-first
   (dependency order), so processing the contiguous packet prefix is
   always safe; [next] is the first unprocessed seq. A packet is kept
   as its verified record and the offset of its payload there: only
   the key material the member then selects is ever decrypted. *)
type assembly = {
  a_rekey_no : int;
  a_epoch : int;
  a_root : int;
  a_total : int;
  a_packets : (Aead.opened * int) option array;
  mutable a_next : int;
  mutable a_nacked : bool;
}

type t = {
  cfg : config;
  loop : Loop.t;
  mutable conn : Conn.t option;
  mutable phase : phase;
  mutable member : int;
  mutable individual : Key.t option;
  mutable mstate : Member.t option;
  mutable epoch : int;
  mutable last_rekey : int;  (* last fully processed rekey_no *)
  mutable assemblies : assembly list;  (* ascending rekey_no *)
  mutable sink : Record.Sink.t option;  (* record layer for the current DEK generation *)
  mutable pending_sealed : (int * int64 * bytes) list;
      (* sealed frames from a generation we haven't reached, newest
         first; drained when the sink rotates *)
  mutable pending_discarded : int;
  mutable ticket : (int * bytes) option;  (* (issued_epoch, blob) of newest ticket *)
  mutable presented : int option;  (* issued_epoch of the ticket in flight in REJOIN *)
  dek_trace : Dek_log.t;
  mutable on_dek : rekey_no:int -> fp:string -> unit;
  mutable on_sealed : epoch:int -> seq:int64 -> ct:bytes -> unit;
  mutable last_error : string option;
  mutable nacks_sent : int;
  mutable resyncs : int;
  mutable rejoins : int;
  mutable frames_dropped : int;
  mutable replays_dropped : int;
  mutable auth_dropped : int;
  mutable auth_streak : int;
      (* consecutive non-future auth failures since the last
         successful open — the signal our own generation is wrong *)
  mutable rekeys_completed : int;
  mutable blocks_decrypted : int;
  mutable blocks_held : int;
      (* counter blocks decrypted of, and held by, the REKEY records
         whose payloads the member state consumed *)
  mutable drains : (int64 * (unit -> unit)) list;
      (* outstanding PING barriers, token -> continuation *)
  mutable sub : Mcast.sub option;  (* UDP group subscription, Some while connected *)
  mutable mcast_rx : int;  (* datagrams received and decoded *)
  mutable mcast_bad : int;  (* datagrams that failed Frame.decode_datagram *)
  mcast_shim : bytes Gkm_net.Netem.t option;  (* receive-side fault injection *)
  drop_state : Loss_model.state option;
  rng : Prng.t;
}

(* Sealed frames buffered for a future generation before we give up
   and resync: a bound on blind catch-up memory, not a tuning knob. *)
let max_pending_sealed = 1024

(* Incomplete rekeys buffered before giving up to RESYNC. *)
let max_assemblies = 4

(* Consecutive stale/forged-looking auth failures before concluding
   our generation is wrong and falling back to RESYNC. *)
let max_auth_streak = 32

let phase t = t.phase
let member t = t.member
let is_member t = t.phase = Member
let epoch t = t.epoch
let last_rekey t = t.last_rekey
let dek_trace t = Dek_log.to_list t.dek_trace
let last_error t = t.last_error
let nacks_sent t = t.nacks_sent
let resyncs t = t.resyncs
let rejoins t = t.rejoins
let frames_dropped t = t.frames_dropped
let replays_dropped t = t.replays_dropped
let auth_dropped t = t.auth_dropped
let pending_discarded t = t.pending_discarded
let rekeys_completed t = t.rekeys_completed
let blocks_decrypted t = t.blocks_decrypted
let blocks_held t = t.blocks_held
let mcast_datagrams_rx t = t.mcast_rx
let mcast_duplicates t = Option.fold ~none:0 ~some:Gkm_net.Netem.duplicates t.mcast_shim
let mcast_decode_errors t = t.mcast_bad
let on_dek t f = t.on_dek <- f
let on_sealed t f = t.on_sealed <- f
let group_key t = Option.bind t.mstate Member.group_key

(* Write-through once connected; frames queued while the connect is in
   flight go out with the first writable dispatch. A dead peer is
   reported by [on_writable] on the loop's next dispatch, never from
   inside the caller. *)
let send t msg =
  match t.conn with
  | Some c ->
      Conn.enqueue_frame c (Frame.encode msg);
      if t.phase <> Connecting then ignore (Conn.write_through t.loop c)
  | None -> ()

let fire_drains t =
  let ds = t.drains in
  t.drains <- [];
  List.iter (fun (_, k) -> k ()) (List.rev ds)

let teardown t ~phase =
  (match t.conn with
  | Some c ->
      Loop.remove_fd t.loop (Conn.fd c);
      Conn.close c;
      t.conn <- None
  | None -> ());
  (match t.sub with
  | Some sub ->
      Loop.remove_fd t.loop (Mcast.sub_fd sub);
      Mcast.close_sub sub;
      t.sub <- None
  | None -> ());
  t.assemblies <- [];
  t.presented <- None;
  t.phase <- phase;
  (* A dead connection can never deliver the PONG: release any barrier
     waiters rather than leaving them to the timeout. *)
  fire_drains t

let fail t msg =
  t.last_error <- Some msg;
  teardown t ~phase:Closed

(* A rekey, install or resume completed at [rekey_no]: log the DEK the
   member state now holds and tell the owner. Returns that DEK with its
   digest, hashed here once for both the log and {!sync_sink}. *)
let note_dek t ~rekey_no m =
  let dek = Option.map (fun k -> (k, Key.digest k)) (Member.group_key m) in
  let fp = match dek with Some (_, d) -> Key.fingerprint_of_digest d | None -> "" in
  Dek_log.add t.dek_trace ~rekey_no fp;
  t.on_dek ~rekey_no ~fp;
  dek

(* A reinstall or resync leaves the buffered future-generation frames
   unopened: the new state is caught up past them or asks again. *)
let discard_pending t =
  t.pending_discarded <- t.pending_discarded + List.length t.pending_sealed;
  t.pending_sealed <- []

(* Install (or reinstall) the member state from a wire key path;
   returns {!note_dek}'s DEK. *)
let install t ~member ~rekey_no ~epoch ~root ~path =
  match path with
  | [] ->
      fail t "empty key path";
      None
  | (leaf, individual) :: _ ->
      let m = Member.create ~id:member ~leaf_node:leaf ~individual_key:individual in
      Member.install_path m path;
      Member.set_root m root;
      t.member <- member;
      t.individual <- Some individual;
      t.mstate <- Some m;
      t.epoch <- epoch;
      t.last_rekey <- rekey_no;
      t.assemblies <- [];
      discard_pending t;
      t.phase <- Member;
      note_dek t ~rekey_no m

let send_nack t rekey_no seqs =
  t.nacks_sent <- t.nacks_sent + 1;
  send t (Msg.Nack { rekey_no; seqs })

let request_resync t =
  match t.individual with
  | Some key when t.member >= 0 ->
      t.resyncs <- t.resyncs + 1;
      t.assemblies <- [];
      discard_pending t;
      t.phase <- Resync_wait;
      send t
        (Msg.Resync_req
           {
             member = t.member;
             epoch = t.epoch;
             auth = Frame.resync_auth ~key ~member:t.member ~epoch:t.epoch;
           })
  | _ -> fail t "cannot resync before first join"

(* Process the head assembly's contiguous prefix; pop completed heads.
   Never touches a later assembly while the head has gaps — its
   entries may be wrapped under keys the head delivers. Returns
   {!note_dek}'s DEK for the last completed rekey, [None] if none
   completed. *)
let rec pump ?last t =
  match (t.assemblies, t.mstate) with
  | head :: rest, Some m ->
      let continue = ref true in
      while !continue && head.a_next < head.a_total do
        match head.a_packets.(head.a_next) with
        | None -> continue := false
        | Some (record, off) -> (
            match
              Aead.parse record ~off (fun r ->
                  Packet.read_payload r ~select:(Member.interested m) (fun e ->
                      ignore (Member.process_entry m e)))
            with
            | Ok () ->
                t.blocks_decrypted <- t.blocks_decrypted + Aead.blocks_decrypted record;
                t.blocks_held <- t.blocks_held + Aead.blocks record;
                head.a_next <- head.a_next + 1
            | Error e ->
                continue := false;
                t.last_error <- Some ("bad rekey payload: " ^ e))
      done;
      (* a_total = 0 is a placeholder for a wholly-missed rekey; it
         completes only after the NACK's answer refreshes it with the
         real run *)
      if head.a_total > 0 && head.a_next >= head.a_total then begin
        Member.set_root m head.a_root;
        t.epoch <- head.a_epoch;
        t.last_rekey <- head.a_rekey_no;
        t.assemblies <- rest;
        t.rekeys_completed <- t.rekeys_completed + 1;
        pump ?last:(note_dek t ~rekey_no:head.a_rekey_no m) t
      end
      else last
  | _ -> last

let find_assembly t rekey_no = List.find_opt (fun a -> a.a_rekey_no = rekey_no) t.assemblies

let assembly ~rekey_no ~epoch ~root ~total ~nacked =
  {
    a_rekey_no = rekey_no;
    a_epoch = epoch;
    a_root = root;
    a_total = total;
    a_packets = Array.make total None;
    a_next = 0;
    a_nacked = nacked;
  }

(* Track a wholly-missed rekey (server soft skip, or every frame
   dropped) as a placeholder assembly, NACKed whole. *)
let add_missed t rekey_no =
  t.assemblies <-
    t.assemblies @ [ assembly ~rekey_no ~epoch:0 ~root:0 ~total:0 ~nacked:true ];
  send_nack t rekey_no []

(* Create assemblies for [rekey_no] and any wholly-missed rekeys
   between it and what we already track. *)
let ensure_assembly t ~rekey_no ~epoch ~root ~total =
  let known_max =
    List.fold_left (fun acc a -> max acc a.a_rekey_no) t.last_rekey t.assemblies
  in
  for missed = known_max + 1 to rekey_no - 1 do
    add_missed t missed
  done;
  match find_assembly t rekey_no with
  | Some a -> a
  | None ->
      let a = assembly ~rekey_no ~epoch ~root ~total ~nacked:false in
      t.assemblies <-
        List.sort (fun x y -> compare x.a_rekey_no y.a_rekey_no) (a :: t.assemblies);
      a

(* A whole-rekey NACK's answer arrives with the real epoch/root/total
   the placeholder assembly lacks — rebuild it. *)
let refresh_assembly t a ~epoch ~root ~total =
  if a.a_total = 0 && total > 0 then begin
    let fresh = assembly ~rekey_no:a.a_rekey_no ~epoch ~root ~total ~nacked:a.a_nacked in
    t.assemblies <-
      List.map (fun x -> if x.a_rekey_no = a.a_rekey_no then fresh else x) t.assemblies;
    fresh
  end
  else a

(* NACK [a]'s missing seqs from [a_next] up to [bound], if any. *)
let nack_gaps t a ~bound =
  let gaps = ref [] in
  for i = bound downto a.a_next do
    if a.a_packets.(i) = None then gaps := i :: !gaps
  done;
  if !gaps <> [] then begin
    a.a_nacked <- true;
    send_nack t a.a_rekey_no !gaps
  end

(* NACK the head's known gaps: indices below the highest received seq
   (or all gaps once a later rekey proves the run is over). *)
let nack_head_gaps t =
  match t.assemblies with
  | head :: rest when head.a_total > 0 && not head.a_nacked ->
      let high = ref (-1) in
      Array.iteri (fun i p -> if p <> None then high := i) head.a_packets;
      nack_gaps t head ~bound:(if rest <> [] then head.a_total - 1 else !high)
  | _ -> ()

(* A sealed frame from a generation ahead of ours is proof that we
   missed a DEK-changing rekey. Push the recovery machinery the same
   way a rekey_no gap does: finish NACKing the head assembly's
   gaps (including its tail — the run is over), or, with no assembly
   in flight, NACK the next rekey we should have seen; its
   retransmission comes sealed under the generation we do hold. *)
let note_future_frame t =
  match t.assemblies with
  | head :: _ when head.a_total > 0 ->
      if not head.a_nacked then begin
        nack_gaps t head ~bound:(head.a_total - 1);
        head.a_nacked <- true
      end
  | _ :: _ -> ()  (* placeholder head, already NACKed whole *)
  | [] -> if t.phase = Member then add_missed t (t.last_rekey + 1)

(* Simulated receive loss: a draw per REKEY record that [handle_rekey]
   would act on, until its rekey is NACKed. The answer is the same
   records again, and it is never drawn: a NACK is answered once. *)
let drops t (msg : Msg.t) =
  match (msg, t.cfg.drop, t.drop_state) with
  | Msg.Rekey r, Some model, Some state
    when t.phase = Member
         && r.rekey_no > t.last_rekey
         && not (List.exists (fun a -> a.a_rekey_no = r.rekey_no && a.a_nacked) t.assemblies) ->
      Loss_model.drop model state t.rng
  | _ -> false

(* Keep the record sink on the generation of our current DEK, as
   {!note_dek} returned it: relabel in place while the DEK survives
   (preserving the replay window), rotate — derive, erase the old key,
   drain buffered frames — when it changed. *)
let rec sync_sink t dek =
  match dek with
  | None -> ()
  | Some (dek, digest) -> (
      match t.sink with
      | Some sink when Record.Epoch.same_digest (Record.Sink.epoch sink) digest ->
          Record.Epoch.relabel (Record.Sink.epoch sink) t.epoch
      | prev ->
          (match prev with
          | Some s -> Record.Epoch.erase (Record.Sink.epoch s)
          | None -> ());
          t.sink <-
            Some (Record.Sink.create (Record.Epoch.of_dek_digest ~dek ~digest ~label:t.epoch));
          drain_pending t)

and drain_pending t =
  let pend = List.rev t.pending_sealed in
  t.pending_sealed <- [];
  List.iter (fun (epoch, seq, ct) -> handle_sealed t ~epoch ~seq ~ct) pend

and handle_sealed t ~epoch ~seq ~ct =
  match t.sink with
  | _ when t.phase = Resync_wait ->
      (* Nothing is kept while the RESYNC reply is awaited, so nothing
         is opened. The window marks only what the member keeps: were
         this record marked, a reply under the same DEK that leaves
         the member behind it would see the NACK's answer — the same
         record again — refused as a replay. *)
      t.pending_discarded <- t.pending_discarded + 1
  | None -> ()  (* no generation installed yet: fan-out racing our admission *)
  | Some sink -> (
      (* The sink authenticates before its replay window, so [`Auth]
         cleanly means "not this generation's keys": if the (hint-only,
         unauthenticated) epoch label points ahead of us, buffer the
         frame for the generation it names — it re-auths on drain — and
         treat the gap as evidence of a missed rekey. Anything else
         failing auth is stale or forged; a persistent streak of those
         with no successful opens means our generation itself is wrong
         (we resynced into a state the server's seal hasn't reached),
         so fall back to RESYNC rather than drop forever. *)
      match Record.Sink.peek sink ~seq ct with
      | Ok record -> (
          t.auth_streak <- 0;
          (* Only the tag and a REKEY's fields are decrypted here; its
             payload waits in the assembly for [pump]. *)
          match Msg.decode_inner_head record with
          | Ok (m, off) ->
              (* The simulated loss is drawn before the window marks
                 the seq, so a later copy of a dropped record (the
                 quiet-tick heartbeat) opens instead of counting as a
                 replay. *)
              let dropped = drops t m in
              if not dropped then Record.Sink.accept sink ~seq;
              handle_inner t m ~payload:(record, off) ~dropped
          | Error e ->
              Record.Sink.accept sink ~seq;
              t.last_error <- Some ("bad sealed payload: " ^ e))
      | Error `Replay -> t.replays_dropped <- t.replays_dropped + 1
      | Error `Auth ->
          if epoch > Record.Epoch.label (Record.Sink.epoch sink) then begin
            t.pending_sealed <- (epoch, seq, ct) :: t.pending_sealed;
            note_future_frame t;
            if List.length t.pending_sealed > max_pending_sealed then request_resync t
          end
          else begin
            t.auth_dropped <- t.auth_dropped + 1;
            t.auth_streak <- t.auth_streak + 1;
            if t.auth_streak > max_auth_streak then begin
              t.auth_streak <- 0;
              request_resync t
            end
          end)

and handle_inner t (msg : Msg.t) ~payload ~dropped =
  match msg with
  | Msg.Rekey r -> handle_rekey t r ~payload ~dropped
  | _ -> t.last_error <- Some "unexpected sealed message"

and handle_rekey t (r : Msg.rekey) ~payload ~dropped =
  if t.phase = Member && r.rekey_no > t.last_rekey then begin
    let a = ensure_assembly t ~rekey_no:r.rekey_no ~epoch:r.epoch ~root:r.root ~total:r.total in
    let a = refresh_assembly t a ~epoch:r.epoch ~root:r.root ~total:r.total in
    if dropped then t.frames_dropped <- t.frames_dropped + 1
    else if r.seq < Array.length a.a_packets && a.a_packets.(r.seq) = None then
      a.a_packets.(r.seq) <- Some payload;
    let dek = pump t in
    nack_head_gaps t;
    if List.length t.assemblies > max_assemblies then request_resync t
    else sync_sink t dek
  end

(* An admitting or recovery RESYNC carries a fresh ticket issued at
   the reply's epoch; an empty one (a migration RESYNC) leaves ours in
   place. A ticket never goes stale, and a REJOIN_ACK never replaces
   the one presented. *)
let take_ticket t ~epoch ticket =
  if Bytes.length ticket > 0 then t.ticket <- Some (epoch, ticket)

(* Apply a REJOIN_ACK's sealed resume: merge the delta keys into the
   surviving member state, or (re)install the full path. Either way we
   are caught up to the server's current rekey in one round trip. *)
let apply_resume t ~member (r : Msg.resume) =
  t.rejoins <- t.rejoins + 1;
  t.presented <- None;
  match t.mstate with
  | Some m when not r.full ->
      Member.install_path m r.path;
      Member.set_root m r.root;
      t.epoch <- r.epoch;
      t.last_rekey <- r.rekey_no;
      t.assemblies <- [];
      discard_pending t;
      t.phase <- Member;
      sync_sink t (note_dek t ~rekey_no:r.rekey_no m)
  | _ ->
      let dek = install t ~member ~rekey_no:r.rekey_no ~epoch:r.epoch ~root:r.root ~path:r.path in
      if t.phase = Member then sync_sink t dek

let send_join t =
  t.phase <- Joining;
  send t (Msg.Join { cls = t.cfg.cls; loss = t.cfg.loss })

(* Fresh-join reset: the fallback of last resort when the server
   reports our membership revoked — the old identity is gone for
   good, so start over as a brand-new member on the same socket. *)
let fresh_join t =
  t.member <- -1;
  t.individual <- None;
  t.mstate <- None;
  t.epoch <- 0;
  t.last_rekey <- 0;
  t.assemblies <- [];
  discard_pending t;
  t.sink <- None;
  t.ticket <- None;
  t.presented <- None;
  send_join t

let handle_msg t (msg : Msg.t) =
  match (t.phase, msg) with
  | _, Ping { token } -> send t (Msg.Pong { token })
  | _, Pong { token } -> (
      match List.assoc_opt token t.drains with
      | Some k ->
          t.drains <- List.remove_assoc token t.drains;
          k ()
      | None -> ())
  | Rejoin_wait, Error_msg { code; detail } ->
      (* The fallback ladder: a refused ticket is not fatal — the
         server kept the socket open on purpose. *)
      if code = Msg.err_evicted then fresh_join t
      else if code = Msg.err_ticket then begin
        t.ticket <- None;
        t.presented <- None;
        if t.member >= 0 && t.individual <> None then request_resync t
        else fresh_join t
      end
      else fail t (Printf.sprintf "server error %d: %s" code detail)
  | _, Error_msg { code; detail } ->
      fail t (Printf.sprintf "server error %d: %s" code detail)
  | Rejoin_wait, Rejoin_ack { member; ct } -> (
      match (t.individual, t.presented) with
      | Some individual, Some issued_epoch -> (
          let rs = Record.Ticket.resume_key ~individual ~issued_epoch in
          match Record.counter_open rs ~ad:Record.resume_ad ct with
          | Ok pt -> (
              match Msg.decode_resume pt with
              | Ok r -> apply_resume t ~member r
              | Error e -> fail t ("bad resume payload: " ^ e))
          | Error _ ->
              (* Unverifiable ack — treat it like a lost ticket. *)
              t.auth_dropped <- t.auth_dropped + 1;
              t.ticket <- None;
              t.presented <- None;
              request_resync t)
      | _ -> fail t "REJOIN_ACK without a presented ticket")
  | (Joining | Resync_wait | Member), Resync { member; rekey_no; epoch; root; path; ticket }
    when member = t.member || t.member < 0 ->
      take_ticket t ~epoch ticket;
      let dek = install t ~member ~rekey_no ~epoch ~root ~path in
      if t.phase = Member then sync_sink t dek
  | (Member | Resync_wait), Sealed { epoch; seq; ct } ->
      t.on_sealed ~epoch ~seq ~ct;
      handle_sealed t ~epoch ~seq ~ct
  | (Joining | Rejoin_wait), Sealed _ -> ()  (* fan-out racing our (re)admission *)
  | Leaving, _ -> ()
  | _, _ -> fail t (Printf.sprintf "unexpected %s" (Msg.tag_name (Msg.tag msg)))

let on_readable t () =
  match t.conn with
  | None -> ()
  | Some c -> (
      match Conn.on_readable c with
      | `Msgs msgs -> List.iter (fun m -> if t.conn <> None then handle_msg t m) msgs
      | `Eof msgs ->
          List.iter (fun m -> if t.conn <> None then handle_msg t m) msgs;
          if t.conn <> None then
            if t.phase = Leaving then teardown t ~phase:Closed
            else fail t "connection closed by server"
      | `Error (e, msgs) ->
          List.iter (fun m -> if t.conn <> None then handle_msg t m) msgs;
          if t.conn <> None then fail t ("wire error: " ^ Frame.error_message e))

(* The UDP data plane: each datagram is one rekey generation's SEALED
   frames. Everything after decode is the exact TCP SEALED path — same
   phase gating, same replay windows (which also absorb duplicated
   datagrams), same buffering and NACK-over-TCP recovery for anything
   lost — so the transports stay behaviourally and byte-identical above
   the socket. *)
let handle_datagram t d =
  match Gkm_wire.Frame.decode_datagram d with
  | Error _ -> t.mcast_bad <- t.mcast_bad + 1
  | Ok records ->
      t.mcast_rx <- t.mcast_rx + 1;
      (match t.phase with
      | Member | Resync_wait ->
          (* A label strictly behind our sink is a definitively-stale
             copy: a duplicated datagram, or the server's quiet-tick
             heartbeat re-multicasting a generation we already rotated
             past. Count the absorption but keep it off the auth
             streak — the label hint can lag the server's seal but
             never lead it, so stale copies carry no
             our-generation-is-wrong signal, and a heartbeat-quiet
             period would otherwise stack [total] failures per repeat
             and trip a spurious RESYNC. Same-label duplicates still
             go through the sink so the replay window owns them. *)
          let stale e =
            match t.sink with
            | Some sink -> e < Record.Epoch.label (Record.Sink.epoch sink)
            | None -> false
          in
          List.iter
            (fun (epoch, seq, ct) ->
              t.on_sealed ~epoch ~seq ~ct;
              if stale epoch then t.auth_dropped <- t.auth_dropped + 1
              else handle_sealed t ~epoch ~seq ~ct)
            records
      | _ -> () (* fan-out racing our (re)admission, as on TCP *))

let on_dgram_readable t () =
  match t.sub with
  | None -> ()
  | Some sub ->
      let rec drain () =
        match Mcast.recv sub with
        | None -> ()
        | Some d ->
            (match t.mcast_shim with
            | None -> handle_datagram t d
            | Some shim -> List.iter (handle_datagram t) (Gkm_net.Netem.push shim d));
            if t.sub <> None then drain ()
      in
      drain ();
      (* A reorder hold must not outlive the burst: the generation just
         sealed may be the last for a while, and a datagram held until
         "the next one" is an undetectable loss if none comes. Release
         it once the socket runs dry — reordering stays within bursts. *)
      match t.mcast_shim with
      | Some shim when t.sub <> None ->
          List.iter (handle_datagram t) (Gkm_net.Netem.flush shim)
      | _ -> ()

let on_writable t () =
  match t.conn with
  | None -> ()
  | Some c ->
      if t.phase = Connecting then begin
        match Unix.getsockopt_error (Conn.fd c) with
        | None -> (
            (* The first frame is the request itself: 0-RTT REJOIN with
               a ticket, RESYNC_REQ for a member without one, JOIN
               otherwise. *)
            match t.ticket with
            | Some (issued_epoch, blob) when t.individual <> None ->
                t.presented <- Some issued_epoch;
                t.phase <- Rejoin_wait;
                send t
                  (Msg.Rejoin
                     { have_epoch = t.epoch; have_state = t.mstate <> None; ticket = blob })
            | _ -> if t.member >= 0 && t.individual <> None then request_resync t else send_join t)
        | Some err -> fail t ("connect: " ^ Unix.error_message err)
      end;
      (match t.conn with
      | Some c -> (
          match Conn.write_through t.loop c with
          | `Ok -> ()
          | `Eof -> if t.phase = Leaving then teardown t ~phase:Closed else fail t "connection reset")
      | None -> ())

let open_conn t =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.cfg.port)) with
  | Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) -> ()
  | e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  let c = Conn.create fd in
  t.conn <- Some c;
  t.phase <- Connecting;
  Loop.add_fd t.loop fd ~readable:(on_readable t) ~writable:(on_writable t);
  (* Armed until the connect completes; [on_writable]'s first flush
     disarms it. *)
  Loop.set_write_interest t.loop fd true;
  match t.cfg.mcast with
  | None -> ()
  | Some group when t.sub = None -> (
      match Mcast.subscribe group with
      | Ok sub ->
          t.sub <- Some sub;
          Loop.add_fd t.loop (Mcast.sub_fd sub) ~readable:(on_dgram_readable t) ~writable:ignore
      | Error e ->
          (* No silent TCP degradation: a client asked onto the UDP
             data plane that cannot join the group must say so. *)
          teardown t ~phase:Closed;
          failwith ("multicast subscribe: " ^ e))
  | Some _ -> ()

(* Resumption blobs let a fresh process rejoin as an old member:
   "GKTK" || member i32 || epoch i32 || issued_epoch i32 ||
   individual var16 || ticket var16. The individual key is secret —
   the blob is for the member's own keeping, not for the wire. *)
let resumption_magic = "GKTK"

let export_resumption t =
  match (t.individual, t.ticket) with
  | Some key, Some (issued_epoch, blob) when t.member >= 0 ->
      let buf = Buffer.create (32 + Bytes.length blob) in
      Buffer.add_string buf resumption_magic;
      Codec.add_i32 buf t.member;
      Codec.add_i32 buf t.epoch;
      Codec.add_i32 buf issued_epoch;
      Codec.add_var16 buf (Key.to_bytes key);
      Codec.add_var16 buf blob;
      Some (Buffer.to_bytes buf)
  | _ -> None

let parse_resumption b =
  Codec.parse b @@ fun r ->
  Codec.magic r resumption_magic;
  let member = Codec.i32 r in
  let epoch = Codec.i32 r in
  let issued_epoch = Codec.i32 r in
  (* The wire carries these as non-negative varints: a negative one
     could only come from a damaged blob. *)
  if member < 0 || epoch < 0 || issued_epoch < 0 then Codec.corrupt "negative id or epoch";
  let key = Codec.var16 r in
  if Bytes.length key <> Key.size then Codec.corrupt "bad individual key size";
  let ticket = Codec.var16 r in
  (member, epoch, issued_epoch, Key.of_bytes key, ticket)

let connect ~loop cfg =
  let t =
    {
      cfg;
      loop;
      conn = None;
      phase = Closed;
      member = -1;
      individual = None;
      mstate = None;
      epoch = 0;
      last_rekey = 0;
      assemblies = [];
      sink = None;
      pending_sealed = [];
      pending_discarded = 0;
      ticket = None;
      presented = None;
      dek_trace = Dek_log.create ();
      on_dek = (fun ~rekey_no:_ ~fp:_ -> ());
      on_sealed = (fun ~epoch:_ ~seq:_ ~ct:_ -> ());
      last_error = None;
      nacks_sent = 0;
      resyncs = 0;
      rejoins = 0;
      frames_dropped = 0;
      replays_dropped = 0;
      auth_dropped = 0;
      auth_streak = 0;
      rekeys_completed = 0;
      blocks_decrypted = 0;
      blocks_held = 0;
      drains = [];
      sub = None;
      mcast_rx = 0;
      mcast_bad = 0;
      mcast_shim =
        (if Gkm_net.Netem.is_none cfg.mcast_fault then None
         else Some (Gkm_net.Netem.create ~seed:(cfg.seed lxor 0x4D43) cfg.mcast_fault));
      drop_state = Option.map Loss_model.init_state cfg.drop;
      rng = Prng.create cfg.seed;
    }
  in
  (match cfg.resume with
  | None -> ()
  | Some blob -> (
      match parse_resumption blob with
      | Ok (member, epoch, issued_epoch, key, ticket) ->
          t.member <- member;
          t.epoch <- epoch;
          t.individual <- Some key;
          t.ticket <- Some (issued_epoch, ticket)
      | Error e -> t.last_error <- Some ("resumption ignored: " ^ e)));
  open_conn t;
  t

let kill t = teardown t ~phase:Closed
(* state (member id, individual key, epoch) survives for reconnect *)

(* PING/PONG barrier. The server answers PING at any phase; its write
   queue to us is FIFO, so receiving the PONG proves everything the
   server enqueued for this client before it processed the PING has
   been received. *)
let drain ?(timeout = 5.0) t k =
  match t.conn with
  | None -> k ()
  | Some _ ->
      let token = Prng.bits64 t.rng in
      t.drains <- t.drains @ [ (token, k) ];
      send t (Msg.Ping { token });
      Loop.after t.loop ~delay:timeout (fun () ->
          match List.assoc_opt token t.drains with
          | Some k ->
              t.drains <- List.remove_assoc token t.drains;
              k ()
          | None -> ())

let reconnect t =
  if t.conn <> None then teardown t ~phase:Closed;
  t.last_error <- None;
  open_conn t

(* After LEAVE the client keeps reading and waits for the server to
   close: closing first, with fan-out frames still unread in the
   receive buffer, would turn our close into a TCP RST and could
   destroy the in-flight LEAVE before the server reads it. *)
let leave t =
  match t.conn with
  | Some _ when t.phase = Member ->
      let member = t.member in
      t.phase <- Leaving;
      send t (Msg.Leave { member })
  | _ -> kill t

module Private = struct
  let epoch = epoch
  let key_of t node = Option.bind t.mstate (fun m -> Member.Private.key_of m node)
  let frames_dropped = frames_dropped
  let blocks_decrypted = blocks_decrypted
  let blocks_held = blocks_held
  let pending_discarded = pending_discarded
  let request_resync = request_resync
  let deliver = handle_msg
  let mcast_duplicates = mcast_duplicates
  let mcast_decode_errors = mcast_decode_errors
end
