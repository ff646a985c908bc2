module Prng = Gkm_crypto.Prng
module Key = Gkm_crypto.Key
module Frame = Gkm_wire.Frame
module Msg = Gkm_wire.Msg
module Grammar = Gkm_wire.Grammar
module Packet = Gkm_transport.Packet
module Rekey_msg = Gkm_lkh.Rekey_msg
open Gkm_crypto.Codec

type failure = {
  f_stage : string;
  f_kind : [ `Raise of string | `Fixpoint | `Should_accept of string ];
  f_frame : bytes;
  f_origin : string;
}

type report = {
  mutable generated : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable replayed : int;
  mutable failures : failure list;
  mutable elapsed_s : float;
}

let empty () =
  { generated = 0; accepted = 0; rejected = 0; replayed = 0; failures = []; elapsed_s = 0.0 }

(* ---------------- generation ---------------- *)

(* Small-biased sizes keep the throughput high without giving up on
   multi-hundred-byte bodies entirely. *)
let gen_len rng =
  match Prng.int rng 4 with
  | 0 -> 0
  | 1 -> Prng.int rng 8
  | 2 -> Prng.int rng 64
  | _ -> Prng.int rng 512

let interesting_i32 = [| 0; 1; -1; 0x7fffffff; -0x80000000; 2; 1000 |]

let gen_i32 rng =
  if Prng.bool rng then interesting_i32.(Prng.int rng (Array.length interesting_i32))
  else Prng.int rng 1_000_000

(* Any int: node ids are zigzag varints over all 63 bits. *)
let gen_node rng = Int64.to_int (Prng.bits64 rng)
let gen_key rng = Key.of_bytes (Prng.bytes rng Key.size)

(* Entry ids near zero, at 2e9-stride band ids, at the extremes and
   anywhere, so the payload codec's deltas reach 9-byte varints. *)
let gen_id rng =
  match Prng.int rng 4 with
  | 0 -> Prng.int rng 64
  | 1 -> (Prng.int rng 8 * 2_000_000_000) + Prng.int rng 1000
  | 2 -> if Prng.bool rng then min_int else max_int
  | _ -> gen_node rng

(* Half of the REKEY payloads are real entry payloads, so the
   [packet] stage sees accepted ones and their mutations, not only
   noise its count byte already refuses: a few runs of one to three
   classical wraps, each run of one target and version. Half of the
   runs share one key check, as a refreshed key's wraps do; in the
   rest each wrap has its own. *)
let gen_payload rng =
  if Prng.bool rng then Prng.bytes rng (gen_len rng)
  else
    let group _ =
      let target_node = gen_id rng in
      let target_version = gen_i32 rng in
      let check = if Prng.bool rng then Some (Prng.bytes rng Key.check_size) else None in
      List.init
        (1 + Prng.int rng 3)
        (fun _ ->
          let wrapped_under = gen_id rng in
          let ciphertext = Prng.bytes rng Key.wrapped_size in
          Option.iter (fun c -> Bytes.blit c 0 ciphertext Key.size Key.check_size) check;
          { Rekey_msg.target_node; target_version; level = 0; wrapped_under; receivers = 0; ciphertext })
    in
    Packet.encode_payload (List.concat (List.init (Prng.int rng 4) group))

(* A bounded uvarint at the edges of each varint length (1, 2 and 3
   bytes), at the bound, or anywhere below it. *)
let gen_bounded rng max =
  match Prng.int rng 4 with
  | 0 -> min max [| 0; 1; 127; 128; 16383; 16384 |].(Prng.int rng 6)
  | 1 -> max
  | _ -> Prng.int rng (1 + min max 0x3FFF_FFFF)

(* Record seqs: small ones with bit 63 clear or set (the 1-2 byte
   spellings), the extremes, and any 64-bit pattern. The wire carries
   any int64; only a record sink refuses a negative one. *)
let gen_seq rng =
  match Prng.int rng 4 with
  | 0 -> Int64.of_int (Prng.int rng 20_000)
  | 1 -> Int64.add Int64.min_int (Int64.of_int (Prng.int rng 20_000))
  | 2 -> [| 0L; -1L; Int64.max_int; Int64.min_int |].(Prng.int rng 4)
  | _ -> Prng.bits64 rng

let gen_field rng buf : Grammar.field -> unit = function
  | U8 _ -> add_u8 buf (Prng.int rng 256)
  | Enum (_, vs) -> add_u8 buf vs.(Prng.int rng (Array.length vs))
  | Uvarint (_, max) -> add_uvarint buf (gen_bounded rng max)
  | Varint _ -> add_varint buf (gen_id rng)
  | I64 _ -> add_i64 buf (Prng.bits64 rng)
  | Seq64 _ -> add_seq64 buf (gen_seq rng)
  | F64_unit _ -> add_f64 buf (if Prng.int rng 8 = 0 then float_of_int (Prng.int rng 2) else Prng.float rng 1.0)
  | Rest "payload" -> Buffer.add_bytes buf (gen_payload rng)
  | Rest _ -> Buffer.add_bytes buf (Prng.bytes rng (gen_len rng))
  | Path _ ->
      add_vlist buf
        (fun buf (node, k) ->
          add_varint buf node;
          add_key buf k)
        (List.init (Prng.int rng 5) (fun _ -> (gen_id rng, gen_key rng)))
  | Uvarint_list (_, max) ->
      add_vlist buf add_uvarint (List.init (Prng.int rng 8) (fun _ -> gen_bounded rng max))
  | Seq_total _ ->
      let total = 1 + Prng.int rng 32 in
      add_uvarint buf (Prng.int rng total);
      add_uvarint buf total

let gen_body rng (rule : Grammar.rule) =
  let buf = Buffer.create 64 in
  List.iter (gen_field rng buf) rule.fields;
  Buffer.to_bytes buf

let assemble ~tag body =
  let buf = Buffer.create (8 + Bytes.length body) in
  add_u16 buf Frame.magic;
  add_u8 buf Msg.version;
  add_u8 buf tag;
  add_uvarint buf (Bytes.length body);
  Buffer.add_bytes buf body;
  Buffer.to_bytes buf

let gen_frame rng (rule : Grammar.rule) = assemble ~tag:rule.tag (gen_body rng rule)

(* ---------------- field-level poisoning ----------------

   Re-encode the rule's body with every field valid except one, which
   is emitted broken in a way specific to its kind — the mutation the
   grammar buys over blind bit flips. *)

(* A broken LEB128 spelling: overlong (a value closed by a zero
   group), 11 bytes (past even a seq64's 10), 10 bytes whose last
   carries bits beyond the field (a 10-byte varint is a node id past
   63 bits, the one that once aliased through [Int64.to_int]; a 10th
   seq64 byte above 1 is past 64 bits), or cut short by the end of its
   container. Returns false when the container must end here. *)
let poison_varint rng buf =
  let cont () = Buffer.add_char buf (Char.chr (0x80 lor Prng.int rng 128)) in
  match Prng.int rng 4 with
  | 0 ->
      let tmp = Buffer.create 10 in
      add_uvarint tmp (Prng.int rng 100_000);
      let b = Buffer.to_bytes tmp in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lor 0x80));
      Buffer.add_bytes buf b;
      Buffer.add_char buf '\x00';
      true
  | 1 ->
      for _ = 1 to 10 do
        cont ()
      done;
      Buffer.add_char buf (Char.chr (1 + Prng.int rng 127));
      true
  | 2 ->
      for _ = 1 to 9 do
        cont ()
      done;
      Buffer.add_char buf (Char.chr (2 + Prng.int rng 126));
      true
  | _ ->
      for _ = 0 to Prng.int rng 9 do
        cont ()
      done;
      false

(* Every field valid but one, which is emitted broken in a way
   specific to its kind. [false] ends the body at the broken field. *)
let poison_field rng buf : Grammar.field -> bool = function
  | U8 _ | Enum _ ->
      add_u8 buf (2 + Prng.int rng 254);
      true
  | Uvarint (_, max) ->
      if Prng.int rng 3 = 0 then begin
        add_uvarint buf (max + 1 + Prng.int rng 1000);
        true
      end
      else poison_varint rng buf
  | Varint _ | Seq64 _ -> poison_varint rng buf
  | I64 _ ->
      Buffer.add_bytes buf (Prng.bytes rng (Prng.int rng 8));
      true
  | F64_unit _ ->
      add_f64 buf
        (match Prng.int rng 4 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> 2.0
        | _ -> -0.5);
      true
  | Rest _ ->
      (* any bytes are a valid rest; the frame mutations cover it *)
      Buffer.add_bytes buf (Prng.bytes rng (gen_len rng));
      true
  | Path _ ->
      if Prng.bool rng then begin
        add_uvarint buf (0xffff + Prng.int rng 1_000_000) (* count that cannot fit *);
        true
      end
      else begin
        add_uvarint buf 1;
        let go = poison_varint rng buf in
        if go then add_key buf (gen_key rng);
        go
      end
  | Uvarint_list (_, max) ->
      if Prng.bool rng then begin
        add_uvarint buf (0xffff + Prng.int rng 1_000_000);
        true
      end
      else begin
        add_uvarint buf 1;
        add_uvarint buf (max + 1 + Prng.int rng 1000);
        true
      end
  | Seq_total _ ->
      (match Prng.int rng 3 with
      | 0 ->
          add_uvarint buf (Prng.int rng 65536);
          add_uvarint buf 0
      | 1 ->
          let total = 1 + Prng.int rng 32 in
          add_uvarint buf (total + Prng.int rng 8);
          add_uvarint buf total
      | _ ->
          add_uvarint buf 0;
          add_uvarint buf (0x10000 + Prng.int rng 1000));
      true

let gen_poisoned rng (rule : Grammar.rule) =
  let nfields = List.length rule.fields in
  if nfields = 0 then gen_frame rng rule
  else begin
    let target = Prng.int rng nfields in
    let buf = Buffer.create 64 in
    let rec go i = function
      | [] -> ()
      | f :: rest ->
          if i <> target then begin
            gen_field rng buf f;
            go (i + 1) rest
          end
          else if poison_field rng buf f then go (i + 1) rest
    in
    go 0 rule.fields;
    assemble ~tag:rule.tag (Buffer.to_bytes buf)
  end

(* ---------------- datagram generation & poisoning ---------------- *)

let sealed_rule = List.find (fun (r : Grammar.rule) -> r.name = "SEALED") Grammar.rules

let concat frames = Bytes.concat Bytes.empty (Array.to_list frames)

(* A multicast datagram as the server sends a generation: 1-5 SEALED
   frames back to back. *)
let gen_dgram_frames rng = Array.init (1 + Prng.int rng 5) (fun _ -> gen_frame rng sealed_rule)

let gen_dgram rng = concat (gen_dgram_frames rng)

(* One frame of a valid datagram broken the ways a group receiver
   meets: a poisoned field, another message in its place (refused
   whole), or a frame cut short (the rest then starts mid-frame). *)
let gen_dgram_poisoned rng =
  let frames = gen_dgram_frames rng in
  let i = Prng.int rng (Array.length frames) in
  let f = frames.(i) in
  frames.(i) <-
    (match Prng.int rng 3 with
    | 0 -> gen_poisoned rng sealed_rule
    | 1 -> gen_frame rng (List.nth Grammar.rules (Prng.int rng (List.length Grammar.rules)))
    | _ -> Bytes.sub f 0 (Prng.int rng (Bytes.length f)));
  concat frames

(* ---------------- frame-level mutations ---------------- *)

(* A frame's magic, tag, declared body length and the bytes after its
   header, when the header's length varint parses at all. *)
let header frame =
  parse frame (fun r ->
      let m = u16 r in
      ignore (u8 r);
      let tag = u8 r in
      let len = uvarint r in
      (m, tag, len, rest r))

(* The tag and body of a frame whose header is intact: the magic, and
   a declared length that matches the bytes left. *)
let split frame =
  match header frame with
  | Ok (m, tag, len, body) when m = Frame.magic && len = Bytes.length body -> Some (tag, body)
  | _ -> None

let mutations :
    (string * (Prng.t -> bytes -> bytes -> bytes)) list =
  [
    ( "bitflip",
      fun rng a _ ->
        let b = Bytes.copy a in
        if Bytes.length b > 0 then
          for _ = 0 to Prng.int rng 8 do
            let i = Prng.int rng (Bytes.length b) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))
          done;
        b );
    ( "byteset",
      fun rng a _ ->
        let b = Bytes.copy a in
        if Bytes.length b > 0 then
          for _ = 0 to Prng.int rng 4 do
            Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (Prng.int rng 256))
          done;
        b );
    ("truncate", fun rng a _ -> Bytes.sub a 0 (Prng.int rng (max 1 (Bytes.length a))));
    ( "extend",
      fun rng a _ -> Bytes.cat a (Prng.bytes rng (1 + Prng.int rng 32)) );
    ( "lenskew",
      fun rng a _ ->
        match header a with
        | Error _ -> a
        | Ok (_, _, _, body) ->
            let actual = Bytes.length body in
            let buf = Buffer.create (Bytes.length a + 10) in
            Buffer.add_subbytes buf a 0 4;
            (match Prng.int rng 7 with
            | 0 -> add_uvarint buf 0
            | 1 -> add_uvarint buf (actual + 1)
            | 2 -> add_uvarint buf (max 0 (actual - 1))
            | 3 -> add_uvarint buf 0x7fffffff
            | 4 -> add_uvarint buf (Prng.int rng 0x100000)
            | _ -> ignore (poison_varint rng buf));
            Buffer.add_bytes buf body;
            Buffer.to_bytes buf );
    ( "tagswap",
      fun rng a _ ->
        let b = Bytes.copy a in
        if Bytes.length b >= 4 then Bytes.set b 3 (Char.chr (Prng.int rng 256));
        b );
    ( "verskew",
      fun rng a _ ->
        let b = Bytes.copy a in
        if Bytes.length b >= 3 then
          Bytes.set b 2 (Char.chr [| 0; 1; 2; 3; 255 |].(Prng.int rng 5));
        b );
    ( "splice",
      fun rng a c ->
        let cut_a = Prng.int rng (max 1 (Bytes.length a)) in
        let cut_c = Prng.int rng (max 1 (Bytes.length c)) in
        Bytes.cat (Bytes.sub a 0 cut_a) (Bytes.sub c cut_c (Bytes.length c - cut_c)) );
  ]

(* ---------------- checking ---------------- *)

let fail report ~stage ~origin ~frame kind =
  (* Dedup on (stage, kind shape): one representative per bug keeps a
     hot failure from flooding the report. *)
  let same g =
    g.f_stage = stage
    &&
    match (g.f_kind, kind) with
    | `Raise _, `Raise _ | `Fixpoint, `Fixpoint | `Should_accept _, `Should_accept _ -> true
    | _ -> false
  in
  if not (List.exists same report.failures) then
    report.failures <- { f_stage = stage; f_kind = kind; f_frame = frame; f_origin = origin } :: report.failures

let stream_check report ~origin ~chunks frame =
  let d = Frame.decoder () in
  let surfaced = Buffer.create (Bytes.length frame) in
  match
    List.iter (fun (off, len) -> Frame.feed d frame off len) chunks;
    let rec drain n =
      if n > 100_000 then fail report ~stage:"stream" ~origin ~frame (`Raise "decoder did not terminate")
      else
        match Frame.next d with
        | Ok (Some m) ->
            (* Self-fixpoint of each surfaced message: its canonical
               encoding must decode back to itself, byte for byte. *)
            let buf = Buffer.create 64 in
            Msg.encode_body buf m;
            let body = Buffer.to_bytes buf in
            (match Msg.decode_body ~tag:(Msg.tag m) body with
            | Ok m2 ->
                let buf2 = Buffer.create 64 in
                Msg.encode_body buf2 m2;
                if not (Bytes.equal (Buffer.to_bytes buf2) body) then
                  fail report ~stage:"stream" ~origin ~frame `Fixpoint
            | Error e -> fail report ~stage:"stream" ~origin ~frame (`Should_accept e));
            Buffer.add_bytes surfaced (Frame.encode m);
            drain (n + 1)
        | Ok None ->
            (* A stream consumed to the last byte has one spelling: its
               messages re-frame to exactly the bytes fed, headers
               included. *)
            if Frame.buffered d = 0 && not (Bytes.equal (Buffer.to_bytes surfaced) frame) then
              fail report ~stage:"stream" ~origin ~frame `Fixpoint
        | Error _ -> ()
    in
    drain 0
  with
  | () -> ()
  | exception e -> fail report ~stage:"stream" ~origin ~frame (`Raise (Printexc.to_string e))

(* An accepted REKEY still carries outside bytes: the member
   hands its payload to the entry codec next, which must not raise
   either. The codec ignores trailing bytes (FEC-recovered payloads
   come back zero-extended), so its fixpoint is on a prefix: an
   accepted payload re-encodes to exactly the bytes it consumed, which
   holds only if every varint it read was canonical. *)
let packet_check report ~origin frame = function
  | Msg.Rekey m -> (
      let payload = m.packet.payload in
      match Packet.decode_payload payload with
      | Error _ -> ()
      | Ok entries ->
          let canonical = Packet.encode_payload entries in
          let n = Bytes.length canonical in
          if n > Bytes.length payload || not (Bytes.equal canonical (Bytes.sub payload 0 n)) then
            fail report ~stage:"packet" ~origin ~frame `Fixpoint
      | exception e -> fail report ~stage:"packet" ~origin ~frame (`Raise (Printexc.to_string e)))
  | _ -> ()

let body_check report ~origin frame =
  match split frame with
  | Some (tag, body) -> (
      match Msg.decode_body ~tag body with
      | Ok m -> (
          report.accepted <- report.accepted + 1;
          packet_check report ~origin frame m;
          let buf = Buffer.create (Bytes.length body) in
          match Msg.encode_body buf m with
          | () ->
              if not (Bytes.equal (Buffer.to_bytes buf) body) then
                fail report ~stage:"body" ~origin ~frame `Fixpoint
          | exception e ->
              fail report ~stage:"body" ~origin ~frame (`Raise ("re-encode: " ^ Printexc.to_string e)))
      | Error _ -> report.rejected <- report.rejected + 1
      | exception e -> fail report ~stage:"body" ~origin ~frame (`Raise (Printexc.to_string e)))
  | None -> report.rejected <- report.rejected + 1

(* Whatever follows a parseable header, read as a sealed record's
   plaintext. *)
let inner_check report ~origin frame =
  match header frame with
  | Ok (_, _, _, body) when Bytes.length body > 0 -> (
      match Msg.decode_inner body with
      | Ok m ->
          if not (Bytes.equal (Msg.encode_inner m) body) then
            fail report ~stage:"inner" ~origin ~frame `Fixpoint
      | Error _ -> ()
      | exception e -> fail report ~stage:"inner" ~origin ~frame (`Raise (Printexc.to_string e)))
  | _ -> ()

(* A multicast datagram is raw off-the-wire bytes with no streaming
   layer in front, so its decoder gets the same two properties
   enforced directly: decode never raises, and an accepted datagram
   re-encodes, frame by frame, to exactly its bytes. *)
let dgram_check report ~origin frame =
  match Frame.decode_datagram frame with
  | Ok records ->
      let frames =
        List.map (fun (epoch, seq, ct) -> Frame.encode (Msg.Sealed { epoch; seq; ct })) records
      in
      if not (Bytes.equal (Bytes.concat Bytes.empty frames) frame) then
        fail report ~stage:"dgram" ~origin ~frame `Fixpoint
  | Error _ -> ()
  | exception e -> fail report ~stage:"dgram" ~origin ~frame (`Raise (Printexc.to_string e))

let check_raw report ~origin frame =
  let n = Bytes.length frame in
  stream_check report ~origin ~chunks:[ (0, n) ] frame;
  if n >= 2 then begin
    (* re-chunked feed: reassembly must agree with the whole-feed *)
    let mid = n / 2 in
    stream_check report ~origin ~chunks:[ (0, mid); (mid, n - mid) ] frame
  end;
  body_check report ~origin frame;
  inner_check report ~origin frame;
  dgram_check report ~origin frame

(* Greedy chunk-deletion minimizer (ddmin-lite): a reproducer is kept
   only as long as it still fails [check_raw] somehow. *)
let still_fails frame =
  let r = empty () in
  check_raw r ~origin:"minimize" frame;
  r.failures <> []

let minimize frame =
  let current = ref frame in
  let size = ref (max 1 (Bytes.length frame / 2)) in
  while !size >= 1 do
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let n = Bytes.length !current in
      let i = ref 0 in
      while !i + !size <= n && Bytes.length !current = n do
        let cand =
          Bytes.cat (Bytes.sub !current 0 !i) (Bytes.sub !current (!i + !size) (n - !i - !size))
        in
        if still_fails cand then begin
          current := cand;
          progressed := true
        end
        else i := !i + !size
      done
    done;
    size := !size / 2
  done;
  !current

let check_frame report ~origin frame =
  report.generated <- report.generated + 1;
  let tmp = empty () in
  check_raw tmp ~origin frame;
  report.accepted <- report.accepted + tmp.accepted;
  report.rejected <- report.rejected + tmp.rejected;
  List.iter
    (fun f -> fail report ~stage:f.f_stage ~origin:f.f_origin ~frame:(minimize f.f_frame) f.f_kind)
    tmp.failures

(* A datagram of freshly generated SEALED frames must decode: a
   rejection means the datagram decoder and the frame codec have
   drifted apart. *)
let check_dgram_valid report ~origin frame =
  check_frame report ~origin frame;
  match Frame.decode_datagram frame with
  | Ok _ -> ()
  | Error e -> fail report ~stage:"dgram" ~origin ~frame (`Should_accept e)
  | exception _ -> () (* already recorded by check_frame *)

(* A grammar-generated frame must be accepted: a rejection here means
   the grammar and the codec have drifted apart. *)
let check_valid report ~origin frame =
  check_frame report ~origin frame;
  match split frame with
  | Some (tag, body) -> (
      match Msg.decode_body ~tag body with
      | Ok _ -> ()
      | Error e -> fail report ~stage:"grammar" ~origin ~frame (`Should_accept e)
      | exception _ -> () (* already recorded by check_frame *))
  | None -> fail report ~stage:"grammar" ~origin ~frame (`Should_accept "header not intact")

let replay_corpus report entries =
  List.iter
    (fun (e : Corpus.entry) ->
      report.replayed <- report.replayed + 1;
      check_frame report ~origin:("corpus:" ^ e.label) e.frame)
    entries

(* ---------------- driver ---------------- *)

let run ?(seed = 1) ?(frames = 1_000_000) ?max_seconds ?(corpus = []) ?crashers_out ?progress ()
    =
  let rng = Prng.create seed in
  let report = empty () in
  let t0 = Unix.gettimeofday () in
  replay_corpus report corpus;
  let rules = Array.of_list Grammar.rules in
  let deadline = Option.map (fun s -> t0 +. s) max_seconds in
  let expired () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let tick = ref 0 in
  while report.generated < frames && not (expired ()) do
    let ra = rules.(Prng.int rng (Array.length rules)) in
    let rb = rules.(Prng.int rng (Array.length rules)) in
    let fa = gen_frame rng ra in
    let fb = gen_frame rng rb in
    check_valid report ~origin:("valid:" ^ ra.name) fa;
    check_frame report ~origin:("poison:" ^ ra.name) (gen_poisoned rng ra);
    check_dgram_valid report ~origin:"valid:dgram" (gen_dgram rng);
    check_frame report ~origin:"poison:dgram" (gen_dgram_poisoned rng);
    List.iter
      (fun (mname, m) ->
        if report.generated < frames then
          check_frame report ~origin:(mname ^ ":" ^ ra.name) (m rng fa fb))
      mutations;
    incr tick;
    if !tick land 1023 = 0 then begin
      report.elapsed_s <- Unix.gettimeofday () -. t0;
      match progress with Some f -> f report | None -> ()
    end
  done;
  report.elapsed_s <- Unix.gettimeofday () -. t0;
  (match crashers_out with
  | Some path when report.failures <> [] ->
      List.iter
        (fun f ->
          let kind =
            match f.f_kind with
            | `Raise e -> "raise: " ^ e
            | `Fixpoint -> "fixpoint violation"
            | `Should_accept e -> "grammar rejected: " ^ e
          in
          Corpus.append path ~label:(Printf.sprintf "%s [%s] via %s" kind f.f_stage f.f_origin)
            f.f_frame)
        report.failures
  | _ -> ());
  report

let pp_report fmt r =
  Format.fprintf fmt
    "%d frames checked (%d accepted, %d rejected, %d corpus replays) in %.1fs: %s" r.generated
    r.accepted r.rejected r.replayed r.elapsed_s
    (if r.failures = [] then "no raises, no fixpoint violations"
     else Printf.sprintf "%d FAILURES" (List.length r.failures));
  List.iter
    (fun f ->
      let kind =
        match f.f_kind with
        | `Raise e -> "raise: " ^ e
        | `Fixpoint -> "fixpoint violation"
        | `Should_accept e -> "grammar rejected: " ^ e
      in
      Format.fprintf fmt "@\n  [%s] %s via %s: %s" f.f_stage kind f.f_origin
        (Corpus.hex_of_bytes f.f_frame))
    r.failures
