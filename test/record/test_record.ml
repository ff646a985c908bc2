(* The epoch-sealed record layer: AEAD properties (identity, bit-flip
   rejection), the sliding replay window, epoch key hygiene, and the
   resumption-ticket codec — the guarantees DESIGN.md Section 13
   claims, checked directly against the API. *)

module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Aead = Gkm_crypto.Aead
module Hex = Gkm_crypto.Hex
module Record = Gkm_record.Record

let rng = Prng.create 4242
let fresh_dek () = Key.fresh rng

let epoch ?(label = 1) () = Record.Epoch.of_dek ~dek:(fresh_dek ()) ~label

(* ------------------------------------------------------------------ *)
(* AEAD                                                                *)

let sample_aead_key seed = Aead.of_bytes (Prng.bytes (Prng.create seed) Aead.key_size)

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead open(seal(p)) = p" ~count:300
    QCheck.(triple small_nat (string_of_size Gen.(0 -- 256)) (string_of_size Gen.(0 -- 64)))
    (fun (seed, pt, ad) ->
      let key = sample_aead_key seed in
      let nonce = Prng.bytes (Prng.create (seed + 1)) Aead.nonce_size in
      let ad = Bytes.of_string ad in
      let sealed = Aead.seal key ~nonce ~ad (Bytes.of_string pt) in
      match Aead.open_ key ~nonce ~ad sealed with
      | Ok pt' -> String.equal pt (Bytes.to_string pt')
      | Error _ -> false)

(* Every single-bit flip of the sealed blob must be rejected: the tag
   covers the whole ciphertext, and the ciphertext determines the
   plaintext. *)
let prop_aead_bitflip =
  QCheck.Test.make ~name:"aead rejects any single-bit flip" ~count:60
    QCheck.(pair small_nat (string_of_size Gen.(1 -- 48)))
    (fun (seed, pt) ->
      let key = sample_aead_key seed in
      let nonce = Prng.bytes (Prng.create (seed + 1)) Aead.nonce_size in
      let ad = Bytes.of_string "ad" in
      let sealed = Aead.seal key ~nonce ~ad (Bytes.of_string pt) in
      let ok = ref true in
      for byte = 0 to Bytes.length sealed - 1 do
        for bit = 0 to 7 do
          let mutated = Bytes.copy sealed in
          Bytes.set mutated byte
            (Char.chr (Char.code (Bytes.get mutated byte) lxor (1 lsl bit)));
          match Aead.open_ key ~nonce ~ad mutated with
          | Ok _ -> ok := false
          | Error _ -> ()
        done
      done;
      !ok)

let prop_aead_context_binding =
  QCheck.Test.make ~name:"aead binds nonce and ad" ~count:200
    QCheck.(pair small_nat (string_of_size Gen.(0 -- 64)))
    (fun (seed, pt) ->
      let key = sample_aead_key seed in
      let nonce = Prng.bytes (Prng.create (seed + 1)) Aead.nonce_size in
      let ad = Bytes.of_string "context-a" in
      let sealed = Aead.seal key ~nonce ~ad (Bytes.of_string pt) in
      let other_nonce = Prng.bytes (Prng.create (seed + 2)) Aead.nonce_size in
      Result.is_error (Aead.open_ key ~nonce ~ad:(Bytes.of_string "context-b") sealed)
      && (Bytes.equal nonce other_nonce
         || Result.is_error (Aead.open_ key ~nonce:other_nonce ~ad sealed)))

let test_aead_truncated () =
  let key = sample_aead_key 9 in
  let nonce = Bytes.make Aead.nonce_size '\x01' in
  let ad = Bytes.empty in
  let sealed = Aead.seal key ~nonce ~ad (Bytes.of_string "hello") in
  for len = 0 to Bytes.length sealed - 1 do
    match Aead.open_ key ~nonce ~ad (Bytes.sub sealed 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error _ -> ()
  done

(* Known answers computed with the int32 SHA-256 and the buffered MAC
   input that preceded the streamed tag: the wire bytes must not move. *)
let kat_plaintext n = Bytes.init n (fun i -> Char.chr (((i * 7) + 3) land 0xff))

let test_aead_known_answers () =
  let key = Aead.of_bytes (Bytes.init Aead.key_size Char.chr) in
  let nonce = Bytes.init Aead.nonce_size (fun i -> Char.chr (0xa0 + i)) in
  let ad = Bytes.of_string "gkm-kat-ad" in
  List.iter
    (fun (n, expected) ->
      let sealed = Aead.seal key ~nonce ~ad (kat_plaintext n) in
      Alcotest.(check string) (Printf.sprintf "seal %d bytes" n) expected (Hex.encode sealed);
      match Aead.open_ key ~nonce ~ad sealed with
      | Ok pt -> Alcotest.(check bytes) "opens" (kat_plaintext n) pt
      | Error e -> Alcotest.failf "known answer %d rejected: %s" n e)
    [
      (0, "d630d95bd255b04efc4d6464ad90217d");
      (15, "5d12c0e6e93b254afbe1778763f9f4759d4c750af29e9ebab478a60a1f3dd6");
      (16, "5d12c0e6e93b254afbe1778763f9f4e30fcb3259a8ad62d10ca140afd694ba9f");
      (17, "5d12c0e6e93b254afbe1778763f9f4e369e4c509bb90168feb4bd2c1c7c74b86a9");
      ( 183,
        "5d12c0e6e93b254afbe1778763f9f4e369b83e541863e435fa530173f222ff0747ae96b385cbb8ea1220e64e\
         59ffb5294942b35afc27911145f4b524a8dfcbb6753a68a70117b372c9f9896c76d6dfb1d0256e8c405285c5\
         25c9e212fab3114eb356365c65c25efa42daa6acfef42920c15d36fd7ea62c25001b0395c330823e52b6789b\
         f59064e8d318b5b6f2c0873693fcf6a02230597bd251fc39dbc0053359ebf7e50f6f5a3402e13bcdbb953d9c\
         ded15e5323d5c377627fcfa52d97514eb7e34ede332ae6" );
    ]

(* ------------------------------------------------------------------ *)
(* Seal / Sink                                                         *)

(* The nonce is seq || 0^64 and the AD "gkmrec2" || seq; the values
   were checked against an independent HKDF, HMAC and AES-CTR. Seq 0's
   record is what it was under the earlier 0^64 || seq nonce; every
   other seq's keystream moved with the nonce layout. *)
let test_seal_known_answers () =
  let dek = Key.of_bytes (Bytes.init Key.size (fun i -> Char.chr (0x10 + i))) in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:5) in
  List.iter
    (fun (want_seq, want_ct) ->
      let seq, ct = Record.Seal.seal seal (kat_plaintext 40) in
      Alcotest.(check int64) "sequence" want_seq seq;
      Alcotest.(check string) (Printf.sprintf "record %Ld" seq) want_ct (Hex.encode ct))
    [
      ( 0L,
        "cde278680b6f3e247f4386299236cc831b567e2cc8bc051f26e778d9e345a4395cfc60742095230bf60b00c05e3b\
         dcd7bbc3de359a90739c" );
      ( 1L,
        "ef4341a591cec2e485901b0984b857ab1efb88fc110f640087fbcb9d1f7fdfa07bb03863a4fb406443522b25b069\
         92f09091487081feb57b" );
    ]

(* CTR mode needs every counter block under one key to be distinct.
   Four-block records of zeros (so each ciphertext is the keystream)
   are sealed at consecutive seqs of one epoch, and
   counter-sealed blobs at consecutive counters under one key: no
   16-byte keystream block may appear twice. A nonce whose low bytes
   hold the seq would hand record s's block j the keystream of record
   s + j's block 0. *)
let test_keystream_never_repeats () =
  let zeros = Bytes.make 64 '\x00' in
  let check_distinct what streams =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (name, ks) ->
        for j = 0 to (Bytes.length ks / 16) - 1 do
          let block = Bytes.sub_string ks (16 * j) 16 in
          let here = Printf.sprintf "%s block %d" name j in
          match Hashtbl.find_opt seen block with
          | Some first -> Alcotest.failf "%s: %s repeats the keystream of %s" what here first
          | None -> Hashtbl.add seen block here
        done)
      streams
  in
  let ep = epoch () in
  let seal = Record.Seal.create ep in
  check_distinct "records"
    (List.init 8 (fun _ ->
         let seq, ct = Record.Seal.seal seal zeros in
         (Printf.sprintf "record %Ld" seq, Bytes.sub ct 0 64)));
  let key = sample_aead_key 7 in
  check_distinct "counter-sealed blobs"
    (List.init 8 (fun i ->
         let n = Int64.of_int i in
         let blob = Record.counter_seal key ~n ~ad:Record.resume_ad zeros in
         (Printf.sprintf "blob %Ld" n, Bytes.sub blob (Gkm_crypto.Codec.seq64_size n) 64)))

(* DEK identity is the full digest, not the 32-bit log fingerprint: a
   long-lived group draws enough keys for two of them to share one.
   Under [Prng.create 1] the 87,186th fresh key is the first to repeat
   an earlier key's fingerprint; a package derived from the earlier
   key must not claim the later one. *)
let test_same_dek_fingerprint_collision () =
  let rng = Prng.create 1 and seen = Hashtbl.create 100_000 in
  let rec first_collision i =
    if i > 100_000 then Alcotest.fail "no fingerprint collision in 100k keys"
    else
      let k = Key.fresh rng in
      let fp = Key.fingerprint k in
      match Hashtbl.find_opt seen fp with
      | Some earlier -> (i, earlier, k)
      | None ->
          Hashtbl.add seen fp k;
          first_collision (i + 1)
  in
  let i, a, b = first_collision 1 in
  Alcotest.(check int) "colliding draw" 87_186 i;
  Alcotest.(check string) "shared fingerprint" "0b72482b" (Key.fingerprint b);
  Alcotest.(check string) "fingerprints equal" (Key.fingerprint a) (Key.fingerprint b);
  Alcotest.(check bool) "keys differ" false (Key.equal a b);
  let ep = Record.Epoch.of_dek ~dek:a ~label:0 in
  Alcotest.(check bool) "same_dek on the colliding key" false (Record.Epoch.same_dek ep b);
  Alcotest.(check bool) "same_dek on its own key" true (Record.Epoch.same_dek ep a)

let test_seal_sink_identity () =
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:5) in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:5) in
  for i = 0 to 99 do
    let pt = Bytes.of_string (Printf.sprintf "record %d" i) in
    let seq, ct = Record.Seal.seal seal pt in
    Alcotest.(check int64) "sequence is dense" (Int64.of_int i) seq;
    match Record.Sink.open_ sink ~seq ct with
    | Ok pt' -> Alcotest.(check bytes) "plaintext back" pt pt'
    | Error _ -> Alcotest.failf "record %d rejected" i
  done

let test_sink_replay () =
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:1) in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:1) in
  let records = List.init 10 (fun i -> Record.Seal.seal seal (Bytes.make 8 (Char.chr i))) in
  (* [peek] marks nothing: a record opens under it any number of times. *)
  List.iter
    (fun (seq, ct) ->
      for _ = 1 to 2 do
        match Record.Sink.peek sink ~seq ct with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "peeked record rejected"
      done)
    records;
  List.iter
    (fun (seq, ct) ->
      match Record.Sink.open_ sink ~seq ct with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "fresh record rejected")
    records;
  List.iter
    (fun (seq, ct) ->
      List.iter
        (fun open_ ->
          match open_ sink ~seq ct with
          | Error `Replay -> ()
          | Error `Auth -> Alcotest.fail "replay misclassified as auth failure"
          | Ok _ -> Alcotest.failf "replayed seq %Ld accepted" seq)
        [
          Record.Sink.open_;
          (fun sink ~seq ct -> Result.map Aead.plaintext (Record.Sink.peek sink ~seq ct));
        ])
    records;
  (* [accept] after a [peek] marks the seq as [open_] would. *)
  let seq, ct = Record.Seal.seal seal (Bytes.of_string "late") in
  (match Record.Sink.peek sink ~seq ct with
  | Ok _ -> Record.Sink.accept sink ~seq
  | Error _ -> Alcotest.fail "fresh record rejected by peek");
  match Record.Sink.open_ sink ~seq ct with
  | Error `Replay -> ()
  | _ -> Alcotest.fail "an accepted seq opened again"

let test_sink_out_of_order () =
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:1) in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:1) in
  let records = Array.init 20 (fun i -> Record.Seal.seal seal (Bytes.make 4 (Char.chr i))) in
  (* deliver even seqs first, then the odd stragglers: all accepted *)
  Array.iteri
    (fun i (seq, ct) ->
      if i mod 2 = 0 then
        match Record.Sink.open_ sink ~seq ct with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "even seq %Ld rejected" seq)
    records;
  Array.iteri
    (fun i (seq, ct) ->
      if i mod 2 = 1 then
        match Record.Sink.open_ sink ~seq ct with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "straggler seq %Ld rejected" seq)
    records

let test_sink_behind_window () =
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:1) in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:1) in
  let first = Record.Seal.seal seal (Bytes.of_string "first") in
  (* march the 1024-record window far past the first record *)
  for _ = 1 to 1024 + 10 do
    let seq, ct = Record.Seal.seal seal (Bytes.of_string "x") in
    match Record.Sink.open_ sink ~seq ct with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "in-order record rejected"
  done;
  let seq, ct = first in
  match Record.Sink.open_ sink ~seq ct with
  | Error `Replay -> ()
  | Error `Auth -> Alcotest.fail "behind-window misclassified as auth failure"
  | Ok _ -> Alcotest.fail "record behind the window accepted"

let test_sink_bitflip_rejected () =
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:1) in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:1) in
  let seq, ct = Record.Seal.seal seal (Bytes.of_string "sensitive") in
  for byte = 0 to Bytes.length ct - 1 do
    let mutated = Bytes.copy ct in
    Bytes.set mutated byte (Char.chr (Char.code (Bytes.get mutated byte) lxor 0x40));
    match Record.Sink.open_ sink ~seq mutated with
    | Error `Auth -> ()
    | Error `Replay -> Alcotest.failf "flip at %d misclassified as replay" byte
    | Ok _ -> Alcotest.failf "flip at byte %d accepted" byte
  done;
  (* a flipped sequence number is a nonce/AD mismatch: also `Auth —
     and crucially it must NOT poison the window for the true seq *)
  (match Record.Sink.open_ sink ~seq:(Int64.add seq 7L) ct with
  | Error `Auth -> ()
  | Error `Replay -> Alcotest.fail "wrong seq misclassified as replay"
  | Ok _ -> Alcotest.fail "wrong seq accepted");
  match Record.Sink.open_ sink ~seq ct with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "genuine record rejected after tampered deliveries"

(* No sealer produces a negative seq, so the sink refuses one before
   any MAC work, even a record that is authentic under its keys: the
   record below was sealed at seq -2^63 under the known-answer DEK by
   the sealer of an earlier bit-63 unicast space. *)
let test_negative_seq_refused () =
  let dek = Key.of_bytes (Bytes.init Key.size (fun i -> Char.chr (0x10 + i))) in
  let ep = Record.Epoch.of_dek ~dek ~label:5 in
  let sink = Record.Sink.create ep in
  let authentic =
    Hex.decode
      "bb49b705cece57912feab5303999a4bea4c6a83fa8904d802111c99c5ce064d26722cdf02fbe0fcb77684fa0112d\
       4ec1b5e56b84701f5378"
  in
  List.iter
    (fun (seq, ct) ->
      match Record.Sink.open_ sink ~seq ct with
      | Error `Auth -> ()
      | Error `Replay -> Alcotest.failf "seq %Ld misclassified as replay" seq
      | Ok _ -> Alcotest.failf "seq %Ld accepted" seq)
    [ (Int64.min_int, authentic); (-1L, authentic); (Int64.min_int, Bytes.make 56 '\x00') ];
  let seq, ct = Record.Seal.seal (Record.Seal.create ep) (kat_plaintext 40) in
  match Record.Sink.open_ sink ~seq ct with
  | Ok pt -> Alcotest.(check bytes) "seq 0 still opens" (kat_plaintext 40) pt
  | Error _ -> Alcotest.fail "seq 0 rejected after the refusals"

let test_epoch_erase () =
  let dek = fresh_dek () in
  let e_send = Record.Epoch.of_dek ~dek ~label:1 in
  let e_recv = Record.Epoch.of_dek ~dek ~label:1 in
  let seal = Record.Seal.create e_send in
  let sink = Record.Sink.create e_recv in
  let seq, ct = Record.Seal.seal seal (Bytes.of_string "pre-erase") in
  Record.Epoch.erase e_recv;
  (match Record.Sink.open_ sink ~seq ct with
  | Error `Auth -> ()
  | Error `Replay | Ok _ -> Alcotest.fail "erased epoch still opens");
  Record.Epoch.erase e_send;
  Alcotest.check_raises "sealing after erase raises"
    (Invalid_argument "Record.Seal.seal: epoch key erased") (fun () ->
      ignore (Record.Seal.seal seal (Bytes.of_string "post-erase")))

let test_epoch_label_independent () =
  (* The label is a routing hint: it must not affect key derivation. *)
  let dek = fresh_dek () in
  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek ~label:1) in
  let sink_ep = Record.Epoch.of_dek ~dek ~label:999 in
  let sink = Record.Sink.create sink_ep in
  let seq, ct = Record.Seal.seal seal (Bytes.of_string "label skew") in
  (match Record.Sink.open_ sink ~seq ct with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "label skew broke decryption");
  Record.Epoch.relabel sink_ep 1;
  Alcotest.(check int) "relabel applied" 1 (Record.Epoch.label sink_ep);
  Alcotest.(check bool) "same_dek across relabel" true (Record.Epoch.same_dek sink_ep dek)

let test_cross_epoch_rejected () =
  let seal = Record.Seal.create (epoch ()) in
  let sink = Record.Sink.create (epoch ()) in
  let seq, ct = Record.Seal.seal seal (Bytes.of_string "wrong key") in
  match Record.Sink.open_ sink ~seq ct with
  | Error `Auth -> ()
  | Error `Replay -> Alcotest.fail "cross-epoch misclassified as replay"
  | Ok _ -> Alcotest.fail "record opened under a different DEK's keys"

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)

let sample_contents =
  {
    Record.Ticket.member = 421;
    cls = `Long;
    loss = 0.125;
    issued_epoch = 77;
    issued_rekey = 31;
    path_digest = Record.Ticket.path_digest [ 12; -5; 3_000_000_123; 0 ];
  }

let test_ticket_roundtrip () =
  let sealer = Record.Ticket.Sealer.create ~seed:99 in
  let blob = Record.Ticket.Sealer.issue sealer sample_contents in
  match Record.Ticket.Sealer.open_ sealer blob with
  | Ok c -> Alcotest.(check bool) "contents back" true (c = sample_contents)
  | Error e -> Alcotest.failf "own ticket rejected: %s" e

let test_ticket_tamper () =
  let sealer = Record.Ticket.Sealer.create ~seed:99 in
  let blob = Record.Ticket.Sealer.issue sealer sample_contents in
  for byte = 0 to Bytes.length blob - 1 do
    let mutated = Bytes.copy blob in
    Bytes.set mutated byte (Char.chr (Char.code (Bytes.get mutated byte) lxor 0x01));
    match Record.Ticket.Sealer.open_ sealer mutated with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "tampered ticket (byte %d) accepted" byte
  done;
  (* wrong server: a sealer with a different key *)
  let other = Record.Ticket.Sealer.create ~seed:100 in
  (match Record.Ticket.Sealer.open_ other blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign sealer opened the ticket");
  match Record.Ticket.Sealer.open_ sealer Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty blob accepted"

let test_path_digest () =
  let d1 = Record.Ticket.path_digest [ 1; 2; 3 ] in
  Alcotest.(check int) "digest size" 16 (Bytes.length d1);
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal d1 (Record.Ticket.path_digest [ 1; 2; 3 ]));
  Alcotest.(check bool) "order-sensitive" false
    (Bytes.equal d1 (Record.Ticket.path_digest [ 3; 2; 1 ]));
  Alcotest.(check bool) "content-sensitive" false
    (Bytes.equal d1 (Record.Ticket.path_digest [ 1; 2; 4 ]))

let test_resume_key_binding () =
  let individual = fresh_dek () in
  let rs = Record.Ticket.resume_key ~individual ~issued_epoch:10 in
  let blob = Record.counter_seal rs ~n:0L ~ad:Record.resume_ad (Bytes.of_string "delta keys") in
  (match Record.counter_open rs ~ad:Record.resume_ad blob with
  | Ok pt -> Alcotest.(check string) "resume payload" "delta keys" (Bytes.to_string pt)
  | Error e -> Alcotest.failf "own resume blob rejected: %s" e);
  (* a different issue epoch or individual key derives a different key *)
  let rs' = Record.Ticket.resume_key ~individual ~issued_epoch:11 in
  (match Record.counter_open rs' ~ad:Record.resume_ad blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "epoch-shifted resume key opened the blob");
  let rs'' = Record.Ticket.resume_key ~individual:(fresh_dek ()) ~issued_epoch:10 in
  match Record.counter_open rs'' ~ad:Record.resume_ad blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign individual key opened the blob"

(* The counter leads the blob as a seq64 varint: one byte for a young
   counter, and one spelling only — the same AEAD output behind an
   overlong counter is refused. *)
let test_counter_canonical () =
  let key = Record.Ticket.resume_key ~individual:(fresh_dek ()) ~issued_epoch:1 in
  let pt = Bytes.of_string "delta keys" in
  let blob = Record.counter_seal key ~n:5L ~ad:Record.resume_ad pt in
  Alcotest.(check int) "1-byte counter" (1 + Bytes.length pt + Aead.tag_size) (Bytes.length blob);
  Alcotest.(check char) "counter 5" '\x05' (Bytes.get blob 0);
  let overlong =
    Bytes.cat (Bytes.of_string "\x85\x00") (Bytes.sub blob 1 (Bytes.length blob - 1))
  in
  match Record.counter_open key ~ad:Record.resume_ad overlong with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlong counter accepted"

(* ------------------------------------------------------------------ *)
(* Opener fuzz: garbage must yield Error, never an exception           *)

let test_fuzz_openers () =
  let fuzz = Prng.create 1337 in
  let sealer = Record.Ticket.Sealer.create ~seed:5 in
  let dek = fresh_dek () in
  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label:3) in
  let rs = Record.Ticket.resume_key ~individual:dek ~issued_epoch:3 in
  for _ = 1 to 10_000 do
    let len = Prng.int fuzz 200 in
    let junk = Bytes.init len (fun _ -> Char.chr (Prng.int fuzz 256)) in
    let seq = Int64.of_int (Prng.int fuzz (1 lsl 20)) in
    (match Record.Sink.open_ sink ~seq junk with
    | Ok _ -> Alcotest.fail "garbage record opened"
    | Error _ -> ()
    | exception e -> Alcotest.failf "Sink.open_ raised: %s" (Printexc.to_string e));
    (match Record.Ticket.Sealer.open_ sealer junk with
    | Ok _ -> Alcotest.fail "garbage ticket opened"
    | Error _ -> ()
    | exception e -> Alcotest.failf "Sealer.open_ raised: %s" (Printexc.to_string e));
    match Record.counter_open rs ~ad:Record.resume_ad junk with
    | Ok _ -> Alcotest.fail "garbage resume blob opened"
    | Error _ -> ()
    | exception e -> Alcotest.failf "counter_open raised: %s" (Printexc.to_string e)
  done

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "record"
    [
      ( "aead",
        [ Alcotest.test_case "truncations rejected" `Quick test_aead_truncated ]
        @ qsuite [ prop_aead_roundtrip; prop_aead_bitflip; prop_aead_context_binding ]
        @ [ Alcotest.test_case "known answers" `Quick test_aead_known_answers ] );
      ( "record",
        [
          Alcotest.test_case "seal/open identity, dense seqs" `Quick test_seal_sink_identity;
          Alcotest.test_case "replays rejected" `Quick test_sink_replay;
          Alcotest.test_case "out-of-order within window ok" `Quick test_sink_out_of_order;
          Alcotest.test_case "behind-window rejected" `Quick test_sink_behind_window;
          Alcotest.test_case "bit flips rejected, window unpoisoned" `Quick
            test_sink_bitflip_rejected;
          Alcotest.test_case "negative seq refused before MAC" `Quick test_negative_seq_refused;
          Alcotest.test_case "epoch erase" `Quick test_epoch_erase;
          Alcotest.test_case "label independent of keys" `Quick test_epoch_label_independent;
          Alcotest.test_case "cross-epoch records rejected" `Quick test_cross_epoch_rejected;
          Alcotest.test_case "seal known answers" `Quick test_seal_known_answers;
          Alcotest.test_case "no keystream block repeats" `Quick test_keystream_never_repeats;
          Alcotest.test_case "same_dek past a fingerprint collision" `Quick
            test_same_dek_fingerprint_collision;
        ] );
      ( "tickets",
        [
          Alcotest.test_case "issue/open roundtrip" `Quick test_ticket_roundtrip;
          Alcotest.test_case "tampered/foreign tickets rejected" `Quick test_ticket_tamper;
          Alcotest.test_case "path digest" `Quick test_path_digest;
          Alcotest.test_case "resume key binding" `Quick test_resume_key_binding;
          Alcotest.test_case "counter spelled canonically" `Quick test_counter_canonical;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "10k garbage blobs never raise" `Quick test_fuzz_openers ] );
    ]
