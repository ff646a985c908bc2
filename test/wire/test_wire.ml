module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Packet = Gkm_transport.Packet
module Msg = Gkm_wire.Msg
module Frame = Gkm_wire.Frame

let rng = Prng.create 7

let sample_key () = Key.fresh rng

let sample_path n = List.init n (fun i -> ((i * 977) - 400, sample_key ()))

let sample_packet () =
  { Packet.seq = 3; block = 1; index_in_block = 2; payload = Bytes.make 64 '\x2a' }

let sample_rekey () =
  {
    Msg.rekey_no = 17;
    org = 2;
    epoch = 41;
    root = 3_000_000_123;
    seq = 3;
    total = 9;
    packet = sample_packet ();
  }

(* One example per core constructor — the decoder table and every
   field codec get exercised. *)
let samples () =
  [
    Msg.Join { cls = `Short; loss = 0.2 };
    Msg.Join { cls = `Long; loss = 0.0 };
    Msg.Resync
      {
        member = 12;
        rekey_no = 4;
        epoch = 9;
        root = -500_000_001;
        path = sample_path 5;
        ticket = Bytes.make 61 '\x7e';
      };
    Msg.Rekey (sample_rekey ());
    Msg.Nack { rekey_no = 17; seqs = [ 0; 4; 8 ] };
    Msg.Nack { rekey_no = 18; seqs = [] };
    Msg.Resync_req { member = 12; epoch = 41; auth = Bytes.make 32 '\x11' };
    Msg.Resync
      {
        member = 12;
        rekey_no = 19;
        epoch = 44;
        root = 7;
        path = sample_path 3;
        ticket = Bytes.empty;
      };
    Msg.Leave { member = 12 };
    Msg.Ping { token = 0x1234_5678_9ABC_DEFL };
    Msg.Pong { token = Int64.minus_one };
    Msg.Error_msg { code = Msg.err_evicted; detail = "outbox overflow" };
    (* A code is data, not a tag: an unassigned one (5 is reserved)
       still decodes. *)
    Msg.Error_msg { code = 5; detail = "unassigned" };
  ]

(* Sealed records and the rejoin handshake. *)
let samples_v2 () =
  [
    Msg.Sealed { epoch = 42; seq = 0x7FFF_FFFF_FFFF_FF01L; ct = Bytes.make 48 '\x5c' };
    Msg.Sealed { epoch = 0; seq = Int64.min_int; ct = Bytes.empty };
    Msg.Rejoin { have_epoch = 40; have_state = true; ticket = Bytes.make 61 '\x7e' };
    Msg.Rejoin { have_epoch = 0; have_state = false; ticket = Bytes.make 1 '\x00' };
    Msg.Rejoin_ack { member = 12; ct = Bytes.make 200 '\x33' };
  ]

let msg_equal (a : Msg.t) (b : Msg.t) =
  (* Key.t and bytes both compare structurally. *)
  a = b

let decode_one frame =
  let d = Frame.decoder () in
  Frame.feed d frame 0 (Bytes.length frame);
  match Frame.next d with
  | Ok (Some m) -> (
      (* The frame must be consumed exactly. *)
      match Frame.next d with
      | Ok None -> Ok m
      | Ok (Some _) -> Error "decoder produced a second message"
      | Error e -> Error ("trailing state error: " ^ Frame.error_message e))
  | Ok None -> Error "incomplete"
  | Error e -> Error (Frame.error_message e)

let test_roundtrip () =
  List.iter
    (fun m ->
      match decode_one (Frame.encode m) with
      | Ok m' ->
          Alcotest.(check bool)
            (Format.asprintf "%a round-trips" Msg.pp_kind m)
            true (msg_equal m m')
      | Error e -> Alcotest.failf "%a failed to decode: %s" Msg.pp_kind m e)
    (samples () @ samples_v2 ())

let test_foreign_version_rejected () =
  (* There is one wire version: every message on a frame whose header
     claims another one — the retired version 1 or a future 3 — is
     refused, whatever its tag, as that version: the typed refusal the
     server answers with err_version. *)
  let refused what frame version =
    let d = Frame.decoder () in
    Frame.feed d frame 0 (Bytes.length frame);
    match Frame.next d with
    | Error (Frame.Version v) -> Alcotest.(check int) (what ^ ": the version refused") version v
    | Error (Frame.Corrupt e) -> Alcotest.failf "%s refused as corrupt: %s" what e
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun m ->
      List.iter
        (fun version ->
          refused
            (Format.asprintf "%a on a v%d frame" Msg.pp_kind m version)
            (Frame.encode ~version m) version;
          (* Same check via a patched version byte, so the guard is
             proven to live in the decoder, not in [encode]. *)
          let frame = Frame.encode m in
          Bytes.set frame 2 (Char.chr version);
          refused (Format.asprintf "%a with version byte %d" Msg.pp_kind m version) frame version)
        [ Msg.version - 1; Msg.version + 1 ])
    (samples () @ samples_v2 ())

let test_inner_roundtrip () =
  (* The sealed-record plaintext codec: [u8 tag || body], no frame
     header. Every constructor must survive it. *)
  List.iter
    (fun m ->
      match Msg.decode_inner (Msg.encode_inner m) with
      | Ok m' ->
          Alcotest.(check bool)
            (Format.asprintf "%a inner round-trips" Msg.pp_kind m)
            true (msg_equal m m')
      | Error e -> Alcotest.failf "%a inner decode: %s" Msg.pp_kind m e)
    (samples () @ samples_v2 ());
  (match Msg.decode_inner Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty inner accepted");
  match Msg.decode_inner (Bytes.make 3 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk inner accepted"

let test_resume_roundtrip () =
  let r =
    {
      Msg.full = false;
      rekey_no = 211;
      epoch = 57;
      root = 3_000_000_123;
      path = sample_path 4;
      ticket = Bytes.make 61 '\x7e';
    }
  in
  (match Msg.decode_resume (Msg.encode_resume r) with
  | Ok r' -> Alcotest.(check bool) "resume round-trips" true (r = r')
  | Error e -> Alcotest.failf "resume decode: %s" e);
  let full = { r with Msg.full = true; path = sample_path 9; ticket = Bytes.empty } in
  (match Msg.decode_resume (Msg.encode_resume full) with
  | Ok r' -> Alcotest.(check bool) "full resume round-trips" true (full = r')
  | Error e -> Alcotest.failf "full resume decode: %s" e);
  let enc = Msg.encode_resume r in
  for cut = 0 to min 24 (Bytes.length enc - 1) do
    match Msg.decode_resume (Bytes.sub enc 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated resume (%d bytes) accepted" cut
  done

(* An entry as a member decodes it: [level] and [receivers] are the
   sender's annotations and do not travel. *)
let on_wire (e : Gkm_lkh.Rekey_msg.entry) = { e with level = 0; receivers = 0 }

let msg_on_wire (m : Gkm_lkh.Rekey_msg.t) = { m with entries = List.map on_wire m.entries }

let test_rekey_payload_roundtrip () =
  (* A REKEY frame carries a real packetized rekey payload: entries
     survive frame encode -> decode -> Packet.decode_payload. *)
  let entries =
    List.init 7 (fun i ->
        {
          Gkm_lkh.Rekey_msg.target_node = 100 + i;
          target_version = 3;
          level = i mod 4;
          wrapped_under = 200 + i;
          receivers = 50 - i;
          ciphertext = Bytes.make Key.wrapped_size (Char.chr (65 + i));
        })
  in
  let packets = Packet.encode_entries ~capacity_bytes:256 entries in
  let total = List.length packets in
  let decoded =
    List.concat_map
      (fun (p : Packet.t) ->
        let m =
          Msg.Rekey
            { rekey_no = 1; org = 0; epoch = 1; root = 0; seq = p.Packet.seq; total; packet = p }
        in
        match decode_one (Frame.encode m) with
        | Ok (Msg.Rekey r) -> (
            match Packet.decode_payload r.packet.Packet.payload with
            | Ok es -> es
            | Error e -> Alcotest.failf "payload decode: %s" e)
        | Ok _ -> Alcotest.fail "wrong message type back"
        | Error e -> Alcotest.failf "frame decode: %s" e)
      packets
  in
  Alcotest.(check bool) "entries survive the wire" true (decoded = List.map on_wire entries)

let test_split_reassembly () =
  (* Feed a run of frames byte by byte: every message must surface
     exactly once, in order. *)
  let msgs = samples () in
  let stream = Bytes.concat Bytes.empty (List.map Frame.encode msgs) in
  let d = Frame.decoder () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      Frame.feed d stream i 1;
      let rec drain () =
        match Frame.next d with
        | Ok (Some m) ->
            got := m :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "stream error at byte %d: %s" i (Frame.error_message e)
      in
      drain ())
    stream;
  Alcotest.(check int) "all messages surfaced" (List.length msgs) (List.length !got);
  Alcotest.(check bool) "in order and intact" true (List.rev !got = msgs)

(* Bodies from empty to past 64 KiB, so the decoder's buffer grows from
   its small start through several doublings, and the same stream fed
   whole and in 1..7-byte chunks must surface the same messages. *)
let prop_chunked_large_frames =
  QCheck.Test.make ~name:"0-70 KB frames, whole or chunked" ~count:40
    QCheck.(pair (list_of_size Gen.(1 -- 3) (int_range 0 70_000)) small_nat)
    (fun (sizes, seed) ->
      let rng = Prng.create seed in
      let msgs =
        List.mapi
          (fun i n -> Msg.Sealed { epoch = i; seq = Int64.of_int n; ct = Prng.bytes rng n })
          sizes
      in
      let stream = Bytes.concat Bytes.empty (List.map Frame.encode msgs) in
      let decode chunk =
        let d = Frame.decoder () in
        let got = ref [] in
        let rec drain () =
          match Frame.next d with
          | Ok (Some m) ->
              got := m :: !got;
              drain ()
          | Ok None -> ()
          | Error e -> QCheck.Test.fail_reportf "stream error: %s" (Frame.error_message e)
        in
        let pos = ref 0 in
        while !pos < Bytes.length stream do
          let n = min (chunk ()) (Bytes.length stream - !pos) in
          Frame.feed d stream !pos n;
          pos := !pos + n;
          drain ()
        done;
        List.rev !got
      in
      decode (fun () -> Bytes.length stream) = msgs && decode (fun () -> 1 + Prng.int rng 7) = msgs)

(* A frame header: magic, version, tag, then [len] as the raw bytes of
   its body length. *)
let raw_header len =
  Bytes.cat (Bytes.of_string (Printf.sprintf "\x47\x4b%c\x05" (Char.chr Msg.version))) len

let test_oversized_rejected () =
  let d = Frame.decoder ~max_frame:1024 () in
  let buf = Buffer.create 4 in
  Gkm_crypto.Codec.add_uvarint buf (100 * 1024 * 1024);
  let hdr = raw_header (Buffer.to_bytes buf) in
  Frame.feed d hdr 0 (Bytes.length hdr);
  (match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "100 MiB declared length accepted");
  (* The error is sticky. *)
  match Frame.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stream revived after framing error"

(* The body length is a canonical uvarint no greater than the bound:
   a run of bytes that already exceeds it fails at once, before the
   varint (let alone the body) is complete; an overlong spelling fails;
   a varint cut by the end of the bytes so far waits for more. The last
   two cases hold the decoder's default bound, 1 MiB. *)
let test_length_varint () =
  let verdict ?max_frame len =
    let d = Frame.decoder ?max_frame () in
    let hdr = raw_header (Bytes.of_string len) in
    Frame.feed d hdr 0 (Bytes.length hdr);
    Frame.next d
  in
  List.iter
    (fun (what, max_frame, len) ->
      match verdict ~max_frame len with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("1025 past a 1024 bound", 1024, "\x81\x08");
      ("a first byte past a 100 bound, more to come", 100, "\xff");
      ("0 spelled overlong", 1024, "\x80\x00");
      ("1 spelled overlong", 1024, "\x81\x80\x00");
      ("a run of zero groups past the bound's width", 1024, "\x80\x80\x80");
    ];
  (match verdict ~max_frame:1024 "\x80" with
  | Ok None -> ()
  | _ -> Alcotest.fail "a length cut after its first byte must wait for more");
  (match verdict "\x80\x80\x40" with
  | Ok None -> ()
  | _ -> Alcotest.fail "a 3-byte length at the bound must wait for its body");
  match verdict "\x81\x80\x40" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "one byte past 1 MiB accepted"

(* Tags 1, 2 and 4 (the retired HELLO, HELLO_ACK and JOIN_ACK), 7 (the
   retired RETX) and 15 (the retired TICKET) are reserved: a frame
   carrying one, even with the body it had (HELLO: a version range;
   HELLO_ACK: a version; JOIN_ACK: RESYNC's body; RETX: a REKEY body;
   TICKET: member, issued epoch, blob — the layout RESYNC_REQ shares),
   is refused as an unknown type. *)
let test_retired_tag_refused () =
  let refused tag msg =
    let frame = Frame.encode msg in
    Bytes.set frame 3 (Char.chr tag);
    (match decode_one frame with
    | Error e ->
        Alcotest.(check bool) ("refused as an unknown type: " ^ e) true
          (String.ends_with ~suffix:(Printf.sprintf "unknown message type %d" tag) e)
    | Ok m -> Alcotest.failf "tag %d decoded as %a" tag Msg.pp_kind m);
    Alcotest.(check string) "no name of its own" (Printf.sprintf "type-%d" tag) (Msg.tag_name tag)
  in
  (* HELLO's [2, 2] range and HELLO_ACK's version 2 are the bytes of
     these two bodies. *)
  refused 1 (Msg.Error_msg { code = 2; detail = "\002" });
  refused 2 (Msg.Leave { member = 2 });
  refused 4
    (Msg.Resync
       {
         member = 12;
         rekey_no = 4;
         epoch = 9;
         root = -1;
         path = sample_path 2;
         ticket = Bytes.make 61 '\x7e';
       });
  refused 7 (Msg.Rekey (sample_rekey ()));
  refused 15 (Msg.Resync_req { member = 12; epoch = 41; auth = Bytes.make 61 '\x7e' })

let test_bad_magic_and_version () =
  let frame = Frame.encode (Msg.Ping { token = 1L }) in
  let bad_magic = Bytes.copy frame in
  Bytes.set bad_magic 0 '\xff';
  (match decode_one bad_magic with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let bad_version = Bytes.copy frame in
  Bytes.set bad_version 2 '\x63';
  match decode_one bad_version with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version 99 accepted"

(* Decoder robustness: random frames, random mutations of valid
   frames, and truncations must never raise — only [Error] or a
   request for more bytes — and must never allocate beyond the frame
   bound (structurally: a declared length > max_frame is rejected
   before the frame is materialized; here we exercise the paths). *)

let test_fuzz_random () =
  let fuzz_rng = Prng.create 991 in
  for _ = 1 to 5_000 do
    let len = Prng.int fuzz_rng 600 in
    let junk = Bytes.init len (fun _ -> Char.chr (Prng.int fuzz_rng 256)) in
    let d = Frame.decoder ~max_frame:4096 () in
    Frame.feed d junk 0 len;
    let rec drain n =
      if n > 1000 then Alcotest.fail "decoder loops on junk"
      else
        match Frame.next d with
        | Ok (Some _) -> drain (n + 1)
        | Ok None | Error _ -> ()
    in
    match drain 0 with
    | () -> ()
    | exception e -> Alcotest.failf "decoder raised on junk: %s" (Printexc.to_string e)
  done

let test_fuzz_mutated () =
  let fuzz_rng = Prng.create 992 in
  let base = List.map Frame.encode (samples () @ samples_v2 ()) in
  let n_base = List.length base in
  for _ = 1 to 5_000 do
    let frame = Bytes.copy (List.nth base (Prng.int fuzz_rng n_base)) in
    let len = Bytes.length frame in
    (* Either truncate, or flip a few bytes (keeping the magic so the
       body decoders get reached). *)
    let mutated =
      if Prng.bernoulli fuzz_rng 0.5 then Bytes.sub frame 0 (Prng.int fuzz_rng len)
      else begin
        for _ = 0 to Prng.int fuzz_rng 4 do
          let i = 2 + Prng.int fuzz_rng (max 1 (len - 2)) in
          Bytes.set frame i (Char.chr (Prng.int fuzz_rng 256))
        done;
        frame
      end
    in
    let d = Frame.decoder ~max_frame:4096 () in
    match
      Frame.feed d mutated 0 (Bytes.length mutated);
      let rec drain n =
        if n > 1000 then Alcotest.fail "decoder loops on mutation"
        else match Frame.next d with Ok (Some _) -> drain (n + 1) | Ok None | Error _ -> ()
      in
      drain 0
    with
    | () -> ()
    | exception e -> Alcotest.failf "decoder raised on mutation: %s" (Printexc.to_string e)
  done

module Corpus = Gkm_conformance.Corpus
module Fuzzer = Gkm_conformance.Fuzzer
module Grammar = Gkm_wire.Grammar

(* The checked-in crasher corpus (see the file's own header). Replayed
   through the fuzzer's full decoder battery: decode never raises, and
   accepted frames must satisfy the encode∘decode byte fixpoint. *)
let load_corpus () =
  match Corpus.load "fuzz_corpus.txt" with
  | Ok entries -> entries
  | Error e -> Alcotest.failf "fuzz_corpus.txt unreadable: %s" e

let pp_failure (f : Fuzzer.failure) =
  Printf.sprintf "[%s] %s via %s"
    f.Fuzzer.f_stage
    (match f.Fuzzer.f_kind with
    | `Raise e -> "raise: " ^ e
    | `Fixpoint -> "fixpoint violation"
    | `Should_accept e -> "grammar frame rejected: " ^ e)
    f.Fuzzer.f_origin

let check_no_failures what (r : Fuzzer.report) =
  match r.Fuzzer.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: %d failures, first: %s" what (List.length r.Fuzzer.failures)
        (pp_failure f)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_regression_corpus () =
  let entries = load_corpus () in
  Alcotest.(check bool) "corpus has entries" true (List.length entries >= 15);
  let r = Fuzzer.run ~frames:0 ~corpus:entries () in
  Alcotest.(check int) "every entry replayed" (List.length entries) r.Fuzzer.replayed;
  check_no_failures "corpus replay" r;
  (* Entries labelled "reject:" must additionally produce a clean
     [Error] — a hostile frame that starts being accepted is a
     regression even if it round-trips. *)
  List.iter
    (fun (e : Corpus.entry) ->
      if has_prefix ~prefix:"reject:" e.label then
        match decode_one e.frame with
        | Error _ -> ()
        | Ok m ->
            Alcotest.failf "corpus entry %S accepted as %s" e.label
              (Format.asprintf "%a" Msg.pp_kind m)
        | exception ex ->
            Alcotest.failf "corpus entry %S raised: %s" e.label (Printexc.to_string ex))
    entries

(* A datagram's records re-encoded as the SEALED frames they came in. *)
let dgram_of_records records =
  Bytes.concat Bytes.empty
    (List.map (fun (epoch, seq, ct) -> Frame.encode (Msg.Sealed { epoch; seq; ct })) records)

(* Corpus entries labelled "dgram" target the multicast datagram
   decoder: "reject:" and "reject-dgram:" ones must produce a clean
   [Frame.decode_datagram] error, the rest must decode and re-encode
   byte-identically. ("reject-dgram:" marks a datagram whose first
   frame alone is valid, which the "reject:" rule above would refuse
   to pass.) *)
let test_dgram_corpus () =
  let is_sub ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let entries =
    List.filter (fun (e : Corpus.entry) -> is_sub ~needle:"dgram" e.label) (load_corpus ())
  in
  Alcotest.(check bool) "corpus has dgram entries" true (List.length entries >= 8);
  List.iter
    (fun (e : Corpus.entry) ->
      let reject =
        has_prefix ~prefix:"reject:" e.label || has_prefix ~prefix:"reject-dgram:" e.label
      in
      match Frame.decode_datagram e.frame with
      | Error _ when reject -> ()
      | Error err -> Alcotest.failf "dgram entry %S rejected: %s" e.label err
      | Ok _ when reject -> Alcotest.failf "dgram entry %S accepted" e.label
      | Ok records ->
          Alcotest.(check bool)
            (Printf.sprintf "dgram entry %S re-encodes identically" e.label)
            true
            (Bytes.equal (dgram_of_records records) e.frame)
      | exception ex ->
          Alcotest.failf "dgram entry %S raised: %s" e.label (Printexc.to_string ex))
    entries

(* The datagram decoder itself: SEALED frames back to back round-trip,
   with no record cap below the datagram size; an empty datagram, a
   trailing partial frame and any other message are refused whole. *)
let test_dgram_roundtrip () =
  let drng = Prng.create 99 in
  let random_records n =
    List.init n (fun _ ->
        (Prng.int drng 1_000_000, Prng.bits64 drng, Prng.bytes drng (Prng.int drng 300)))
  in
  for _ = 1 to 200 do
    let records = random_records (1 + Prng.int drng 8) in
    match Frame.decode_datagram (dgram_of_records records) with
    | Ok records' -> Alcotest.(check bool) "dgram round-trips" true (records = records')
    | Error e -> Alcotest.failf "dgram round-trip rejected: %s" e
  done;
  (match Frame.decode_datagram (dgram_of_records (random_records 300)) with
  | Ok rs -> Alcotest.(check int) "300 records in one datagram" 300 (List.length rs)
  | Error e -> Alcotest.failf "300-record datagram rejected: %s" e);
  let sealed = dgram_of_records (random_records 1) in
  let error = Frame.encode (Msg.Error_msg { code = Msg.err_auth; detail = "forged" }) in
  List.iter
    (fun (what, d) ->
      match Frame.decode_datagram d with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("an empty datagram", Bytes.empty);
      ("a trailing partial frame", Bytes.cat sealed (Bytes.sub sealed 0 5));
      ("a lone ERROR frame", error);
      ("an ERROR frame after a SEALED one", Bytes.cat sealed error);
      ("a SEALED frame after an ERROR one", Bytes.cat error sealed);
    ]

(* The grammar must cover exactly the codec's tag space, with the same
   names the decoder uses: tags 1 to 17 but the reserved 1, 2, 4, 7
   and 15. *)
let test_grammar_covers_tags () =
  let reserved tg = List.mem tg [ 1; 2; 4; 7; 15 ] in
  Alcotest.(check int) "rule count" 12 (List.length Grammar.rules);
  for tg = 1 to 17 do
    match List.find_opt (fun (r : Grammar.rule) -> r.tag = tg) Grammar.rules with
    | None when reserved tg -> ()
    | None -> Alcotest.failf "grammar missing tag %d (%s)" tg (Msg.tag_name tg)
    | Some r when reserved tg -> Alcotest.failf "grammar has a rule for the reserved tag (%s)" r.Grammar.name
    | Some r -> Alcotest.(check string) "tag name" (Msg.tag_name tg) r.Grammar.name
  done

(* Every grammar-generated frame must be accepted and re-encode to the
   exact bytes decoded — the property that keeps the fuzzer's valid
   generator honest against codec drift. Each fuzzer round checks one
   valid frame of a random rule before mutating it; [frames] counts
   every candidate, under 20 a round, so each rule gets ~200 valid
   frames here. *)
let test_grammar_agreement () =
  let report = Fuzzer.run ~seed:4242 ~frames:(20 * 200 * List.length Grammar.rules) () in
  check_no_failures "grammar agreement" report

(* A fixed-seed slice of the full `gkm conform --fuzz` battery:
   grammar-valid frames plus the whole mutation stack. *)
let test_fuzz_battery () =
  let r = Fuzzer.run ~seed:31337 ~frames:25_000 () in
  Alcotest.(check bool) "spent the budget" true (r.Fuzzer.generated >= 25_000);
  check_no_failures "fuzz battery" r

(* ------------------------------------------------------------------ *)
(* The sealed rekey path: how a Rekey_msg actually travels             *)

(* A rekey message goes out as fixed-capacity packets, each in a REKEY
   body sealed by the record layer under the pre-rekey DEK, each sealed
   record in a SEALED frame — the server's fan-out, minus the socket.
   These are the properties an authenticated rekey encoding owes its
   receivers, pinned on the one codec that carries them. *)

module Rekey_msg = Gkm_lkh.Rekey_msg
module Record = Gkm_record.Record

let dek = Key.fresh (Prng.create 77)

let seal_rekey ?(dek = dek) (msg : Rekey_msg.t) =
  let packets =
    match Packet.encode_entries ~capacity_bytes:1024 msg.entries with
    | [] ->
        (* the server's framed zero-entry rekey *)
        [
          { Packet.seq = 0; block = 0; index_in_block = 0; payload = Packet.encode_payload [] };
        ]
    | ps -> ps
  in
  let total = List.length packets in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:msg.epoch) in
  List.map
    (fun (p : Packet.t) ->
      let seq, ct =
        Record.Seal.seal seal
          (Msg.encode_inner
             (Msg.Rekey
                {
                  rekey_no = 1;
                  org = 2;
                  epoch = msg.epoch;
                  root = msg.root_node;
                  seq = p.seq;
                  total;
                  packet = p;
                }))
      in
      Frame.encode (Msg.Sealed { epoch = msg.epoch; seq; ct }))
    packets

let open_rekey ?(dek = dek) stream =
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:0) in
  let d = Frame.decoder () in
  Frame.feed d stream 0 (Bytes.length stream);
  let rec records acc =
    match Frame.next d with
    | Error e -> Error (Frame.error_message e)
    | Ok None -> Ok (List.rev acc)
    | Ok (Some (Msg.Sealed { seq; ct; _ })) -> (
        match Record.Sink.open_ sink ~seq ct with
        | Error `Auth -> Error "authentication tag mismatch"
        | Error `Replay -> Error "replayed record"
        | Ok pt -> (
            match Msg.decode_inner pt with
            | Ok (Msg.Rekey r) -> records (r :: acc)
            | Ok m -> Error (Format.asprintf "sealed %a, not REKEY" Msg.pp_kind m)
            | Error e -> Error e))
    | Ok (Some m) -> Error (Format.asprintf "%a outside the record layer" Msg.pp_kind m)
  in
  match records [] with
  | Error e -> Error e
  | Ok [] -> Error "no rekey records"
  | Ok (r0 :: _ as rs) when List.length rs = r0.Msg.total ->
      let rec entries acc = function
        | [] ->
            Ok { Rekey_msg.epoch = r0.epoch; root_node = r0.root; entries = List.concat (List.rev acc) }
        | (r : Msg.rekey) :: rest -> (
            match Packet.decode_payload r.packet.Packet.payload with
            | Ok es -> entries (es :: acc) rest
            | Error e -> Error e)
      in
      entries [] rs
  | Ok _ -> Error "incomplete rekey"

let encode_rekey ?dek msg = Bytes.concat Bytes.empty (seal_rekey ?dek msg)

let sample_msg () =
  let module Scheme = Gkm.Scheme in
  let server = Scheme.create { (Scheme.default_config Scheme.One_keytree) with seed = 3 } in
  for m = 1 to 20 do
    ignore (Scheme.register server ~member:m ~cls:Scheme.Long)
  done;
  ignore (Scheme.rekey server);
  Scheme.enqueue_departure server 7;
  Scheme.enqueue_departure server 13;
  Option.get (Scheme.rekey server)

let test_sealed_roundtrip () =
  let msg = sample_msg () in
  Alcotest.(check bool) "sample has entries" true (msg.entries <> []);
  match open_rekey (encode_rekey msg) with
  | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = msg_on_wire msg)
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_sealed_negative_ids () =
  (* Synthetic DEK (-1) and queue-member (-(m+2)) ids must survive. *)
  let entry =
    {
      Rekey_msg.target_node = -1;
      target_version = 3;
      level = 0;
      wrapped_under = -42;
      receivers = 1;
      ciphertext = Bytes.make Key.wrapped_size 'x';
    }
  in
  let msg = { Rekey_msg.epoch = 9; root_node = -1; entries = [ entry ] } in
  match open_rekey (encode_rekey msg) with
  | Ok decoded -> Alcotest.(check bool) "negative ids roundtrip" true (decoded = msg_on_wire msg)
  | Error e -> Alcotest.fail e

let test_sealed_tamper_detected () =
  (* Every flipped byte is rejected — except inside a SEALED frame's
     epoch label, a routing hint outside the authenticated data, where
     the flip must leave the decoded message unchanged. *)
  let msg = sample_msg () in
  let frames = seal_rekey msg in
  let encoded = Bytes.concat Bytes.empty frames in
  (* the bytes of the varint at [off] *)
  let varint_len b off =
    let rec go i = if Char.code (Bytes.get b (off + i)) land 0x80 = 0 then i + 1 else go (i + 1) in
    go 0
  in
  (* a SEALED body opens with its epoch label, after the 4 fixed
     header bytes and the body length *)
  let hints =
    snd
      (List.fold_left
         (fun (at, acc) f ->
           let label = 4 + varint_len f 4 in
           (at + Bytes.length f, (at + label, at + label + varint_len f label) :: acc))
         (0, []) frames)
  in
  let in_hint pos = List.exists (fun (lo, hi) -> pos >= lo && pos < hi) hints in
  for pos = 0 to Bytes.length encoded - 1 do
    if pos mod 37 = 0 || in_hint pos then begin
      let bad = Bytes.copy encoded in
      Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x40));
      match open_rekey bad with
      | Ok m when in_hint pos && m = msg_on_wire msg -> ()
      | Ok _ -> Alcotest.failf "tampering at byte %d undetected" pos
      | Error _ -> ()
    end
  done

let test_sealed_wrong_key () =
  let encoded = encode_rekey (sample_msg ()) in
  match open_rekey ~dek:(Key.fresh (Prng.create 1234)) encoded with
  | Ok _ -> Alcotest.fail "wrong DEK accepted"
  | Error e -> Alcotest.(check string) "tag mismatch reported" "authentication tag mismatch" e

let test_sealed_truncation () =
  let encoded = encode_rekey (sample_msg ()) in
  let n = Bytes.length encoded in
  List.iter
    (fun len ->
      match open_rekey (Bytes.sub encoded 0 len) with
      | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
      | Error _ -> ())
    (List.init (min 61 n) Fun.id @ [ n / 2; n - 1 ])

let test_sealed_bad_magic () =
  let encoded = encode_rekey (sample_msg ()) in
  Bytes.set encoded 0 'X';
  match open_rekey encoded with
  | Error e when String.length e >= 9 && String.sub e 0 9 = "bad magic" -> ()
  | Error e -> Alcotest.failf "unexpected error %S" e
  | Ok _ -> Alcotest.fail "bad magic accepted"

let gen_entry =
  QCheck.Gen.(
    let* target_node = -1000 -- 1000 in
    let* target_version = 0 -- 10000 in
    let* level = 0 -- 40 in
    let* wrapped_under = -1000 -- 1000 in
    let* receivers = 0 -- 100000 in
    let* ct = string_size (return Key.wrapped_size) in
    return
      {
        Rekey_msg.target_node;
        target_version;
        level;
        wrapped_under;
        receivers;
        ciphertext = Bytes.of_string ct;
      })

let gen_msg =
  QCheck.Gen.(
    let* epoch = 0 -- 100000 in
    let* root_node = -5 -- 100000 in
    let* entries = list_size (0 -- 30) gen_entry in
    return { Rekey_msg.epoch; root_node; entries })

let prop_sealed_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip on arbitrary messages" ~count:200
    (QCheck.make
       ~print:(fun (m : Rekey_msg.t) ->
         Printf.sprintf "epoch=%d entries=%d" m.epoch (List.length m.entries))
       gen_msg)
    (fun msg -> open_rekey (encode_rekey msg) = Ok (msg_on_wire msg))

let prop_sealed_garbage_never_raises =
  QCheck.Test.make ~name:"decode never raises on garbage" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> match open_rekey (Bytes.of_string s) with Ok _ | Error _ -> true)

let test_resync_auth () =
  let k = sample_key () in
  let a1 = Frame.resync_auth ~key:k ~member:7 ~epoch:3 in
  let a2 = Frame.resync_auth ~key:k ~member:7 ~epoch:3 in
  Alcotest.(check bool) "deterministic" true (Bytes.equal a1 a2);
  Alcotest.(check bool) "member-sensitive" false
    (Bytes.equal a1 (Frame.resync_auth ~key:k ~member:8 ~epoch:3));
  Alcotest.(check bool) "epoch-sensitive" false
    (Bytes.equal a1 (Frame.resync_auth ~key:k ~member:7 ~epoch:4));
  Alcotest.(check bool) "key-sensitive" false
    (Bytes.equal a1 (Frame.resync_auth ~key:(sample_key ()) ~member:7 ~epoch:3))

(* ------------------------------------------------------------------ *)
(* Varint headers                                                      *)

module Codec = Gkm_crypto.Codec

let hex = Gkm_crypto.Hex.encode

let seq64_bytes v =
  let buf = Buffer.create 10 in
  Codec.add_seq64 buf v;
  Buffer.to_bytes buf

let decode_seq64 s = Codec.parse (Bytes.of_string s) Codec.seq64

(* Plain unsigned LEB128 over the 64 bits: 1 byte below 128, and
   every negative pattern reaches the 10-byte ceiling. *)
let test_seq64_golden () =
  List.iter
    (fun (v, want) ->
      let b = seq64_bytes v in
      Alcotest.(check string) (Printf.sprintf "seq %Lx" v) want (hex b);
      Alcotest.(check int) (Printf.sprintf "seq %Lx size" v) (Bytes.length b) (Codec.seq64_size v);
      match decode_seq64 (Bytes.to_string b) with
      | Ok v' -> Alcotest.(check int64) (Printf.sprintf "seq %Lx decodes" v) v v'
      | Error e -> Alcotest.failf "seq %Lx: %s" v e)
    [
      (0L, "00");
      (127L, "7f");
      (128L, "8001");
      (16383L, "ff7f");
      (Int64.min_int, "80808080808080808001");
      (Int64.add Int64.min_int 1L, "81808080808080808001");
      (0x7FFF_FFFF_FFFF_FF01L, "81feffffffffffff7f");
    ]

let test_seq64_non_canonical () =
  List.iter
    (fun (what, s) ->
      match decode_seq64 s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%s accepted as %Lx" what v
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("0 closed by a zero group", "\x80\x00");
      ("127 closed by a zero group", "\xff\x00");
      ("ten bytes ending in zero", String.make 9 '\x80' ^ "\x00");
      ("a 10th byte of 2, bit 64", String.make 9 '\xff' ^ "\x02");
      ("eleven bytes", String.make 10 '\x80' ^ "\x01");
      ("a lone continuation byte", "\x80");
      ("no bytes", "");
    ]

let prop_seq64_roundtrip =
  QCheck.Test.make ~name:"every int64 seq round-trips in at most 10 bytes" ~count:1000
    QCheck.(
      oneof
        [
          int64;
          map Int64.of_int small_nat;
          map (fun n -> Int64.add Int64.min_int (Int64.of_int n)) small_nat;
        ])
    (fun v ->
      let b = seq64_bytes v in
      Bytes.length b <= 10
      && Bytes.length b = Codec.seq64_size v
      && decode_seq64 (Bytes.to_string b) = Ok v)

(* The tcp-rejoin steady state: a TT group whose churn stays in the S
   tree, one short-lived member in and one out per interval, so a
   rekey carries 2 keys. Its SEALED frame, pinned to the byte, is 91 B;
   the fixed-width record and REKEY headers spent 70 B on the same
   58-byte payload (128 B), and a fixed 4-byte frame length and epoch
   label 6 B more (97 B). *)
let test_golden_steady_frame () =
  let module Scheme = Gkm.Scheme in
  let s = Scheme.create { (Scheme.default_config Scheme.Tt) with seed = 1 } in
  for m = 0 to 15 do
    ignore (Scheme.register s ~member:m ~cls:Scheme.Long)
  done;
  ignore (Scheme.rekey s);
  let last = ref None in
  for m = 100 to 110 do
    ignore (Scheme.register s ~member:m ~cls:Scheme.Short);
    if m > 100 then Scheme.enqueue_departure s (m - 1);
    last := Scheme.rekey s
  done;
  let msg = Option.get !last in
  Alcotest.(check int) "2-key rekey" 2 (List.length msg.entries);
  let packet =
    match Packet.encode_entries ~capacity_bytes:1024 msg.entries with
    | [ p ] -> p
    | _ -> Alcotest.fail "one packet expected"
  in
  let inner =
    Msg.encode_inner
      (Msg.Rekey
         {
           rekey_no = 300;
           org = 2;
           epoch = msg.epoch;
           root = msg.root_node;
           seq = 0;
           total = 1;
           packet;
         })
  in
  Alcotest.(check string)
    "REKEY header: tag, rekey_no 300, org 2, epoch 12, root -1, seq 0 of 1, block 0, index 0"
    "05ac02020c0100010000"
    (hex (Bytes.sub inner 0 10));
  Alcotest.(check int)
    "then the payload, to the end"
    (10 + Bytes.length packet.payload)
    (Bytes.length inner);
  let dek = Key.of_bytes (Bytes.make 16 'D') in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:msg.epoch) in
  let seq, ct = Record.Seal.seal seal inner in
  let frame = Frame.encode (Msg.Sealed { epoch = msg.epoch; seq; ct }) in
  Alcotest.(check string) "SEALED frame"
    (String.concat ""
       [
         "474b020e56" (* frame header: SEALED, 86-byte body *);
         "0c" (* epoch label 12 *);
         "00" (* seq 0 *);
         (* the sealed REKEY and its 16-byte tag, to the end *)
         "f59015c00f8a9937e76963d6045c2fa233d8bb64e09952c7d2b71f6a907a582d1dd11984ebaede36caef";
         "276a99e73595c72482ac618757009d1eb75a9ddbfe56caa3a8aaa3e8070d2d7a1c580ff699ff925bf2c1";
       ])
    (hex frame);
  Alcotest.(check bool)
    (Printf.sprintf "%d B <= 100" (Bytes.length frame))
    true
    (Bytes.length frame <= 100);
  match open_rekey ~dek frame with
  | Ok m -> Alcotest.(check bool) "opens to the rekey" true (m = msg_on_wire msg)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "every message round-trips" `Quick test_roundtrip;
          Alcotest.test_case "rekey payload survives the wire" `Quick test_rekey_payload_roundtrip;
          Alcotest.test_case "byte-by-byte reassembly" `Quick test_split_reassembly;
          Alcotest.test_case "sealed inner codec round-trips" `Quick test_inner_roundtrip;
          Alcotest.test_case "rejoin resume body round-trips" `Quick test_resume_roundtrip;
          Alcotest.test_case "resync auth tag" `Quick test_resync_auth;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_chunked_large_frames ] );
      ( "varint",
        [
          Alcotest.test_case "golden seq64 spellings" `Quick test_seq64_golden;
          Alcotest.test_case "non-canonical seq64 refused" `Quick test_seq64_non_canonical;
          Alcotest.test_case "golden 2-key TT SEALED frame" `Quick test_golden_steady_frame;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_seq64_roundtrip ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_sealed_roundtrip;
          Alcotest.test_case "negative ids" `Quick test_sealed_negative_ids;
          Alcotest.test_case "tamper detection" `Quick test_sealed_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_sealed_wrong_key;
          Alcotest.test_case "truncation" `Quick test_sealed_truncation;
          Alcotest.test_case "bad magic" `Quick test_sealed_bad_magic;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_sealed_roundtrip; prop_sealed_garbage_never_raises ] );
      ( "robustness",
        [
          Alcotest.test_case "oversized declared length rejected" `Quick test_oversized_rejected;
          Alcotest.test_case "frames of another wire version rejected" `Quick
            test_foreign_version_rejected;
          Alcotest.test_case "checked-in corpus replays cleanly" `Quick test_regression_corpus;
          Alcotest.test_case "dgram corpus entries verdict correctly" `Quick test_dgram_corpus;
          Alcotest.test_case "dgram codec round-trips with guards" `Quick test_dgram_roundtrip;
          Alcotest.test_case "grammar covers the tag space" `Quick test_grammar_covers_tags;
          Alcotest.test_case "grammar frames accepted with byte fixpoint" `Quick
            test_grammar_agreement;
          Alcotest.test_case "25k-frame fuzz battery never raises" `Quick test_fuzz_battery;
          Alcotest.test_case "bad magic / version rejected" `Quick test_bad_magic_and_version;
          Alcotest.test_case "5k random byte frames never raise" `Quick test_fuzz_random;
          Alcotest.test_case "5k mutated/truncated frames never raise" `Quick test_fuzz_mutated;
          Alcotest.test_case "body length is a canonical bounded varint" `Quick test_length_varint;
          Alcotest.test_case "retired tag 15 refused as unknown" `Quick test_retired_tag_refused;
        ] );
    ]
