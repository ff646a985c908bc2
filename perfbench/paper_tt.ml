(* paper-tt: the key server's send path at the paper's Table 1 operating
   point, in process, no sockets.

   Each interval registers the interval's joins and queues its
   departures (Section 3.3.1 two-class membership), runs the TT
   organization's batched rekey, packs the entries into 1 KiB wide
   packets, and seals each packet as a REKEY record framed for the wire
   — rotating the seal on a DEK change exactly as the server's tick
   does. A fixed sample of verifying members then decodes, opens and
   processes the rekey. They share one record receiver: every member
   of a generation opens the same bytes with the same key, so opening
   them once per sample keeps the receive side of the interval at the
   cost of one member rather than sixteen. *)

module Organization = Gkm.Organization
module Key = Gkm_crypto.Key
module Member = Gkm_lkh.Member
module Rekey_msg = Gkm_lkh.Rekey_msg
module Packet = Gkm_transport.Packet
module Msg = Gkm_wire.Msg
module Frame = Gkm_wire.Frame
module Record = Gkm_record.Record
module Membership = Gkm_workload.Membership
module Params = Gkm_analytic.Params
module Two_partition = Gkm_analytic.Two_partition

(* Table 1 (alpha 0.8, Ms 3 min, Ml 3 h, Tp 60 s, d 4, K 10) at
   N = 16384; Fig. 5 shows the TT saving is flat in N. *)
let params = { Params.default with n = 16384 }
let sample_size = 16
let capacity = 1024

(* The measured/predicted key ratio must stay inside this band. *)
let ratio_band = (0.87, 1.07)

type g = {
  org : Organization.packed;
  batches : ((int * Membership.cls) list * int list) array;
  mutable next : int;
  mutable rekey_no : int;
  mutable seal : Record.Seal.t option;  (* keyed by the DEK before the coming rekey *)
  mutable sink : Record.Sink.t option;  (* the verifying sample's receiver, same generation *)
  sample : (int, Member.t) Hashtbl.t;
  mutable dek_trace : (int * string) list;  (* reversed *)
  tickets : Record.Ticket.Sealer.t;
  mutable epoch : int;
  mutable root : int;
  mutable rejoin_nonce : int64;
  (* measured-phase tallies; those that normalise span times count
     traced intervals only *)
  mutable n_rekeys : int;
  mutable n_traced : int;
  mutable joins : int;
  mutable migrations : int;
  mutable packets : int;
  mutable records : int;
  mutable sealed_kb : float;
  mutable rotations : int;
  mutable member_rekeys : int;
  mutable entries_used : int;
  mutable auth_fail : int;
  mutable replay_drop : int;
  mutable checks : (bool * string) list;  (* reversed *)
}

let now = Unix.gettimeofday

let cls = function Membership.Short -> Gkm.Scheme.Short | Membership.Long -> Gkm.Scheme.Long

let spec seed =
  Organization.Scheme_cfg
    { Gkm.Scheme.kind = Gkm.Scheme.Tt; degree = params.d; s_period = params.k; seed }

let generate ~seed ~n_intervals =
  let cfg =
    Membership.of_params ~n_target:params.n ~alpha:params.alpha ~ms:params.ms ~ml:params.ml
      ~tp:params.tp
  in
  Array.of_list (Membership.intervals cfg ~rng:(Gkm_crypto.Prng.create seed) ~n_intervals)

(* A member as a fresh client would hold it after the registration or
   migration unicast: its whole path from the server. *)
let install (module O : Organization.S) id =
  match O.member_path id with
  | [] -> invalid_arg "Paper_tt.install: empty path"
  | (leaf, individual) :: _ as path ->
      let m = Member.create ~id ~leaf_node:leaf ~individual_key:individual in
      Member.install_path m path;
      (match List.rev path with (root, _) :: _ -> Member.set_root m root | [] -> ());
      m

let check g ok fmt = Printf.ksprintf (fun s -> g.checks <- (ok, s) :: g.checks) fmt

(* Seal one generation as the server does: REKEY body, record, frame. *)
let seal_frames g (msg : Rekey_msg.t) packets =
  match g.seal with
  | None -> [||]
  | Some seal ->
      let total = Array.length packets in
      let rekey seq packet =
        Msg.Rekey
          {
            rekey_no = g.rekey_no;
            org = 2;
            epoch = msg.epoch;
            root = msg.root_node;
            seq;
            total;
            packet;
          }
      in
      let inner =
        Trace.span "wire.encode" (fun () ->
            Array.mapi (fun seq p -> Msg.encode_inner (rekey seq p)) packets)
      in
      let sealed = Trace.span "record.seal" (fun () -> Array.map (Record.Seal.seal seal) inner) in
      if !Trace.on then begin
        let bytes = Array.fold_left (fun a b -> a + Bytes.length b) 0 inner in
        g.sealed_kb <- g.sealed_kb +. (float_of_int bytes /. 1024.0)
      end;
      let epoch = Record.Epoch.label (Record.Seal.epoch seal) in
      Trace.span "wire.encode" (fun () ->
          Array.map
            (fun (seq, ct) -> Frame.encode ~version:2 (Msg.Sealed { epoch; seq; ct }))
            sealed)

(* A fresh generation for the DEK, derived under a "record.epoch" span;
   [None] when the generation [current] already belongs to it. *)
let rotation g current dek =
  match current with
  | Some ep when Record.Epoch.same_dek ep dek -> None
  | _ ->
      if !Trace.on then g.rotations <- g.rotations + 1;
      Option.iter Record.Epoch.erase current;
      Some (Trace.span "record.epoch" (fun () -> Record.Epoch.of_dek ~dek ~label:g.epoch))

let rotate_seal g dek =
  let current = Option.map Record.Seal.epoch g.seal in
  match rotation g current dek with
  | Some ep -> g.seal <- Some (Record.Seal.create ep)
  | None -> Option.iter (fun ep -> Record.Epoch.relabel ep g.epoch) current

let rotate_sink g dek =
  let current = Option.map Record.Sink.epoch g.sink in
  match rotation g current dek with
  | Some ep -> g.sink <- Some (Record.Sink.create ep)
  | None -> Option.iter (fun ep -> Record.Epoch.relabel ep g.epoch) current

(* The receive side: frames back to entries, through the sample's sink. *)
let receive g frames =
  match g.sink with
  | None -> []
  | Some sink ->
      let records =
        Trace.span "wire.decode" (fun () ->
            let d = Frame.decoder () in
            Array.map
              (fun f ->
                Frame.feed d f 0 (Bytes.length f);
                match Frame.next d with
                | Ok (Some (Msg.Sealed { seq; ct; _ })) -> (seq, ct)
                | _ -> failwith "paper-tt: undecodable frame")
              frames)
      in
      let opened =
        Trace.span "record.open" (fun () ->
            Array.map
              (fun (seq, ct) ->
                match Record.Sink.open_ sink ~seq ct with
                | Ok pt -> Some pt
                | Error `Auth ->
                    g.auth_fail <- g.auth_fail + 1;
                    None
                | Error `Replay ->
                    g.replay_drop <- g.replay_drop + 1;
                    None)
              records)
      in
      let packets =
        Trace.span "wire.decode" (fun () ->
            Array.map
              (fun pt ->
                match Option.map Msg.decode_inner pt with
                | Some (Ok (Msg.Rekey r)) -> Some r.packet
                | _ -> None)
              opened)
      in
      if !Trace.on then g.records <- g.records + Array.length frames;
      Trace.span "transport.decode" (fun () ->
          List.concat_map
            (fun p ->
              match Option.map (fun p -> Packet.decode_payload p.Packet.payload) p with
              | Some (Ok es) -> es
              | _ -> [])
            (Array.to_list packets))

(* Re-entry by ticket, as the server answers a REJOIN from a member
   that lost its state: open the ticket, seal the member's whole path
   under the resume key derived from its individual key; the member
   opens the reply, installs the path and must hold the DEK again. *)
let rejoin g id =
  let module O = (val g.org : Organization.S) in
  let path = O.member_path id in
  let contents =
    {
      Record.Ticket.member = id;
      cls = `Long;
      loss = 0.0;
      issued_epoch = g.epoch;
      issued_rekey = g.rekey_no;
      path_digest = Record.Ticket.path_digest (List.map fst path);
    }
  in
  let ticket = Record.Ticket.Sealer.issue g.tickets contents in
  let individual = snd (List.hd path) in
  let a = now () in
  let mem =
    Trace.span "bench.rejoin" (fun () ->
        let c = Result.get_ok (Record.Ticket.Sealer.open_ g.tickets ticket) in
        let resume =
          {
            Msg.full = true;
            rekey_no = g.rekey_no;
            epoch = g.epoch;
            root = g.root;
            path = O.member_path c.member;
            ticket = Record.Ticket.Sealer.issue g.tickets contents;
          }
        in
        let key = Record.Ticket.resume_key ~individual ~issued_epoch:c.issued_epoch in
        let n = g.rejoin_nonce in
        g.rejoin_nonce <- Int64.succ n;
        let ct = Record.counter_seal key ~n ~ad:Record.resume_ad (Msg.encode_resume resume) in
        let pt = Result.get_ok (Record.counter_open key ~ad:Record.resume_ad ct) in
        let r = Result.get_ok (Msg.decode_resume pt) in
        let m = Member.create ~id ~leaf_node:(fst (List.hd r.path)) ~individual_key:individual in
        Member.install_path m r.path;
        Member.set_root m r.root;
        m)
  in
  let ms = (now () -. a) *. 1e3 in
  check g
    (Option.equal Key.equal (Member.group_key mem) (O.group_key ()))
    "rejoined member %d lacks the DEK" id;
  ms

(* The verifying sample receives the rekey; then the migration
   unicasts, and this interval's newcomers top the sample back up.
   Every sample member must hold the new DEK, and no evictee may. *)
let verify g (msg : Rekey_msg.t) frames dek ~joins ~joined ~evictees =
  let module O = (val g.org : Organization.S) in
  let rmsg = { msg with Rekey_msg.entries = receive g frames } in
  Hashtbl.iter
    (fun _ mem ->
      let used = Trace.span "lkh.process" (fun () -> Member.process mem rmsg) in
      if !Trace.on then begin
        g.entries_used <- g.entries_used + used;
        g.member_rekeys <- g.member_rekeys + 1
      end)
    g.sample;
  Trace.span "bench.install" (fun () ->
      List.iter
        (fun (m, _) ->
          if not (Hashtbl.mem joined m) then g.migrations <- g.migrations + 1;
          if Hashtbl.mem g.sample m then Hashtbl.replace g.sample m (install g.org m))
        (O.placements ());
      List.iter
        (fun (m, _) ->
          let room = Hashtbl.length g.sample < sample_size in
          if room && O.is_member m && not (Hashtbl.mem g.sample m) then
            Hashtbl.replace g.sample m (install g.org m))
        joins);
  let holds mem = Option.equal Key.equal (Member.group_key mem) (Some dek) in
  Hashtbl.iter
    (fun id mem -> check g (holds mem) "member %d lacks the DEK of rekey %d" id g.rekey_no)
    g.sample;
  List.iter
    (fun mem ->
      ignore (Member.process mem rmsg);
      check g
        (not (holds mem))
        "evicted member %d derived the DEK of rekey %d" (Member.id mem) g.rekey_no)
    evictees;
  rotate_sink g dek

let interval g =
  let module O = (val g.org : Organization.S) in
  let joins, departs = g.batches.(g.next) in
  g.next <- g.next + 1;
  Trace.rekey_no := g.rekey_no + 1;
  Trace.span "bench.interval" (fun () ->
      Trace.span "core.register" (fun () ->
          List.iter (fun (m, c) -> ignore (O.register ~member:m ~cls:(cls c) ~loss:0.0)) joins);
      if !Trace.on then g.joins <- g.joins + List.length joins;
      let joined = Hashtbl.create 512 in
      List.iter (fun (m, _) -> Hashtbl.replace joined m ()) joins;
      let evictees = ref [] in
      Trace.span "core.depart" (fun () ->
          List.iter
            (fun m ->
              if O.is_member m || Hashtbl.mem joined m then begin
                O.enqueue_departure m;
                match Hashtbl.find_opt g.sample m with
                | Some mem ->
                    Hashtbl.remove g.sample m;
                    evictees := mem :: !evictees
                | None -> ()
              end)
            departs);
      let t0 = now () in
      let msg =
        match Trace.span "core.rekey" O.rekey with
        | Some msg -> msg
        | None -> failwith "paper-tt: an interval produced no rekey"
      in
      let frames, npackets =
        Trace.span "bench.rekey" (fun () ->
            g.rekey_no <- g.rekey_no + 1;
            g.epoch <- msg.epoch;
            g.root <- msg.root_node;
            let packets =
              Trace.span "transport.encode" (fun () ->
                  Packet.encode_entries ~wide:true ~capacity_bytes:capacity msg.entries)
              |> Array.of_list
            in
            let frames = seal_frames g msg packets in
            let dek = Option.get (O.group_key ()) in
            rotate_seal g dek;
            g.dek_trace <- (g.rekey_no, Key.fingerprint dek) :: g.dek_trace;
            Trace.span "bench.verify" (fun () ->
                verify g msg frames dek ~joins ~joined ~evictees:!evictees);
            (frames, Array.length packets))
      in
      let rekey_ms = (now () -. t0) *. 1e3 in
      let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) g.sample []) in
      let rejoin_ms = List.map (rejoin g) ids in
      g.n_rekeys <- g.n_rekeys + 1;
      if !Trace.on then begin
        g.n_traced <- g.n_traced + 1;
        g.packets <- g.packets + npackets
      end;
      let bytes = Array.fold_left (fun a f -> a + Bytes.length f) 0 frames in
      { Harness.rekey_ms; keys = List.length msg.entries; bytes; rejoin_ms })

let create ~seed ~batches =
  {
    org = Organization.create (spec seed);
    batches;
    next = 0;
    rekey_no = 0;
    seal = None;
    sink = None;
    sample = Hashtbl.create 32;
    dek_trace = [];
    tickets = Record.Ticket.Sealer.create ~seed;
    epoch = 0;
    root = 0;
    rejoin_nonce = 0L;
    n_rekeys = 0;
    n_traced = 0;
    joins = 0;
    migrations = 0;
    packets = 0;
    records = 0;
    sealed_kb = 0.0;
    rotations = 0;
    member_rekeys = 0;
    entries_used = 0;
    auth_fail = 0;
    replay_drop = 0;
    checks = [];
  }

(* Interval 0 admits the initial population; the next K+2 intervals
   carry it through its S->L migration. Then the tallies restart. *)
let setup ~seed ~batches () =
  let g = create ~seed ~batches in
  for _ = 0 to params.k + 2 do
    ignore (interval g)
  done;
  g.n_rekeys <- 0;
  g.migrations <- 0;
  g.auth_fail <- 0;
  g.replay_drop <- 0;
  g

let finish g (r : Report.t) =
  let keys_per_rekey () = Option.value ~default:0.0 (Report.get r "keys_per_rekey") in
  let traced = float_of_int (max 1 g.n_traced) in
  List.iter (fun (ok, s) -> Report.check r ok "%s" s) (List.rev g.checks);
  Report.set r "core.rekey_ms" (Trace.ms_per_rekey "core.rekey");
  Report.set r "core.register_us" (Trace.us_per "core.register" g.joins);
  Report.set r "core.keys" (keys_per_rekey ());
  Report.set r "core.migrations" (float_of_int g.migrations /. float_of_int g.n_rekeys);
  Report.set r "transport.encode_ms" (Trace.ms_per_rekey "transport.encode");
  Report.set r "transport.packets" (float_of_int g.packets /. traced);
  Report.set r "transport.decode_us" (Trace.us_per "transport.decode" g.packets);
  Report.set r "wire.encode_ms" (Trace.ms_per_rekey "wire.encode");
  Report.set r "wire.decode_us" (Trace.us_per "wire.decode" g.records);
  Report.set r "wire.bytes" (Option.value ~default:0.0 (Report.get r "server_tx_bytes_per_rekey"));
  Report.set r "record.seal_ms" (Trace.ms_per_rekey "record.seal");
  Report.set r "record.seal_us_per_kb"
    (Stats.sum (Trace.durations "record.seal") *. 1e6 /. Float.max 1e-9 g.sealed_kb);
  Report.set r "record.open_us" (Trace.us_per "record.open" g.records);
  Report.set r "record.epoch_us" (Trace.us_per "record.epoch" g.rotations);
  Report.set r "record.auth_fail" (float_of_int g.auth_fail);
  Report.set r "record.replay_drop" (float_of_int g.replay_drop);
  Report.set r "lkh.process_us" (Trace.us_per "lkh.process" g.member_rekeys);
  Report.set r "lkh.entries_used"
    (float_of_int g.entries_used /. float_of_int (max 1 g.member_rekeys));
  Report.set r "bench.verify_ms" (Trace.ms_per_rekey "bench.verify");
  let parts = [ "core.rekey"; "transport.encode"; "wire.encode"; "record.seal"; "bench.verify" ] in
  let sum = List.fold_left (fun a n -> a +. Trace.ms_per_rekey n) 0.0 parts in
  Option.iter
    (fun p50 ->
      Report.note r "accounting: %s = %.3f ms against the traced rekey_ms p50 %.3f ms (%.1f%%)"
        (String.concat " + " parts) sum p50 (100.0 *. sum /. p50))
    (Report.get r "bench.traced_rekey_ms_p50");
  let pred = Two_partition.cost params Two_partition.Tt in
  let ratio = keys_per_rekey () /. pred in
  Report.set r "analytic.keys_pred" pred;
  Report.set r "analytic.keys_ratio" ratio;
  let lo, hi = ratio_band in
  Report.note r "analytic: measured %.1f keys/rekey vs TT model %.1f (ratio %.4f, band %.2f-%.2f)"
    (keys_per_rekey ()) pred
    ratio lo hi;
  if ratio < lo || ratio > hi then
    Report.error r "keys ratio %.4f outside the band %.2f-%.2f" ratio lo hi

let workload ~seed ~seconds =
  (* Enough intervals for set-up, the pinned window, and well over the
     fastest rate seen (~6 rekeys/s) for [seconds]. *)
  let n_intervals = params.k + 3 + Harness.pin + (20 * int_of_float seconds) in
  let batches = generate ~seed ~n_intervals in
  {
    Harness.setup = setup ~seed ~batches;
    teardown = ignore;
    interval;
    dek_trace = (fun g -> List.rev g.dek_trace);
    finish;
  }
