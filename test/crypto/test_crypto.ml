(* Test vectors: FIPS 180-4 (SHA-256), RFC 4231 (HMAC-SHA-256),
   FIPS 197 / NIST SP 800-38A (AES-128), plus property tests. *)

open Gkm_crypto

let check_hex = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Hex                                                                 *)

let test_hex_encode () =
  check_hex "empty" "" (Hex.encode Bytes.empty);
  check_hex "abc" "616263" (Hex.encode (Bytes.of_string "abc"));
  check_hex "all-bytes edge" "00ff7f80" (Hex.encode (Bytes.of_string "\x00\xff\x7f\x80"))

let test_hex_decode () =
  Alcotest.(check string) "roundtrip" "abc" (Bytes.to_string (Hex.decode "616263"));
  Alcotest.(check string)
    "uppercase accepted" "\xde\xad\xbe\xef"
    (Bytes.to_string (Hex.decode "DEADBEEF"))

let test_hex_decode_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd-length input")
    (fun () -> ignore (Hex.decode "abc"));
  (match Hex.decode "0g" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for bad digit")

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode(encode(b)) = b" ~count:200
    QCheck.(string_of_size Gen.(0 -- 128))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Hex.decode (Hex.encode b)) b)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)

let sha256_hex s = Hex.encode (Sha256.digest (Bytes.of_string s))

let test_sha256_vectors () =
  check_hex "empty message"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha256_hex "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha256_hex "abc");
  check_hex "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha256_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha256_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  check_hex "10^6 x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_sha256_incremental_split () =
  (* Absorbing the message in arbitrary chunks must match one-shot. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.digest (Bytes.of_string msg) in
  let splits = [ [ 0; 300 ]; [ 1; 299 ]; [ 63; 237 ]; [ 64; 236 ]; [ 65; 235 ]; [ 100; 100; 100 ] ] in
  List.iter
    (fun parts ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun len ->
          Sha256.update_string ctx (String.sub msg !pos len);
          pos := !pos + len)
        parts;
      Alcotest.(check string)
        "chunked = one-shot" (Hex.encode oneshot)
        (Hex.encode (Sha256.finalize ctx)))
    splits

let prop_sha256_chunking =
  QCheck.Test.make ~name:"sha256 chunked = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (int_range 0 200))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub s 0 cut);
      Sha256.update_string ctx (String.sub s cut (String.length s - cut));
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest (Bytes.of_string s)))

(* HMAC as RFC 2104 spells it, over the reference hash: the oracle
   for the streamed [Hmac.apply]. *)
let reference_hmac ~key msg =
  let key = if Bytes.length key > 64 then Sha256_reference.digest key else key in
  let pad byte =
    Bytes.init 64 (fun i ->
        Char.chr ((if i < Bytes.length key then Char.code (Bytes.get key i) else 0) lxor byte))
  in
  Sha256_reference.digest
    (Bytes.cat (pad 0x5c) (Sha256_reference.digest (Bytes.cat (pad 0x36) msg)))

(* Absorb [msg] through every update form, cutting it at [cuts]:
   [update], [update_sub] (inside a larger buffer) and [update_string]
   in turn, so each form sees partial, whole and multi-block pieces. *)
let hash_in_pieces msg cuts =
  let ctx = Sha256.init () in
  let n = Bytes.length msg in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) @ [ n ] in
  ignore
    (List.fold_left
       (fun (pos, form) cut ->
         let len = cut - pos in
         (match form mod 3 with
         | 0 -> Sha256.update ctx (Bytes.sub msg pos len)
         | 1 ->
             let framed = Bytes.cat (Bytes.make 3 'x') (Bytes.cat msg (Bytes.make 5 'y')) in
             Sha256.update_sub ctx framed (3 + pos) len
         | _ -> Sha256.update_string ctx (Bytes.sub_string msg pos len));
         (cut, form + 1))
       (0, 0) cuts);
  Sha256.finalize ctx

(* Absorb [msg] as the tail of a buffer that holds [off] other bytes
   before it, so the last slice ends on the buffer's last byte: whole
   blocks are read where they lie, right up to the end. With [cut],
   the first piece is [msg]'s first [cut] bytes, so the tail is read
   after a partial block. *)
let hash_at_end ?(cut = 0) msg off =
  let n = Bytes.length msg in
  let buf = Bytes.cat (Bytes.make off '\xa5') msg in
  let ctx = Sha256.init () in
  Sha256.update_sub ctx buf off cut;
  Sha256.update_sub ctx buf (off + cut) (n - cut);
  Sha256.finalize ctx

(* Equivalence against the int32 implementation (Sha256_reference is a
   verbatim copy of it): digests and HMAC tags byte-identical for
   messages cut at random points, and keys on both sides of the 64-byte
   block size. One prepared key MACs the message, then each of its
   prefixes interleaved with the whole message again, and a midstate
   resumes twice: a tag or digest must not depend on what was hashed
   before it. The message is also hashed as the end of a buffer, from
   every start offset 0-63. *)
let prop_sha256_hmac_match_reference =
  QCheck.Test.make ~name:"sha256/hmac byte-identical to reference" ~count:300
    QCheck.(
      triple
        (string_of_size Gen.(0 -- 300))
        (list_of_size Gen.(0 -- 6) (int_range 0 300))
        (string_of_size Gen.(0 -- 100)))
    (fun (msg, cuts, key) ->
      let msg = Bytes.of_string msg and key = Bytes.of_string key in
      let expected = Sha256_reference.digest msg in
      let n = Bytes.length msg in
      let cut = if cuts = [] then 0 else List.hd cuts mod (n + 1) in
      let prepared = Hmac.prepare key in
      let tag m = Hmac.apply prepared [ (m, 0, Bytes.length m) ] in
      let blocks = n / 64 * 64 in
      let mid =
        let ctx = Sha256.init () in
        Sha256.update_sub ctx msg 0 blocks;
        Sha256.midstate ctx
      in
      let resumed () =
        let ctx = Sha256.resume mid in
        Sha256.update_sub ctx msg blocks (n - blocks);
        Sha256.finalize ctx
      in
      Bytes.equal (hash_in_pieces msg cuts) expected
      && List.for_all
           (fun off ->
             Bytes.equal (hash_at_end msg off) expected
             && Bytes.equal (hash_at_end ~cut:(min n (off + 1)) msg off) expected)
           (List.init 64 Fun.id)
      && Bytes.equal (Sha256.digest msg) expected
      && Bytes.equal (resumed ()) expected
      && Bytes.equal (resumed ()) expected
      && Bytes.equal (Hmac.mac ~key msg) (reference_hmac ~key msg)
      && Bytes.equal
           (Hmac.apply prepared [ (msg, 0, cut); (msg, cut, n - cut) ])
           (reference_hmac ~key msg)
      && List.for_all
           (fun c ->
             let prefix = Bytes.sub msg 0 (c mod (n + 1)) in
             Bytes.equal (tag prefix) (reference_hmac ~key prefix)
             && Bytes.equal (tag msg) (reference_hmac ~key msg))
           cuts)

(* The message schedule is scratch on the kernel's stack: two
   domains hashing at once, with one shared prepared key, each get the
   reference digests and tags. *)
let test_sha256_two_domains () =
  let key = Bytes.of_string "a key shared by both domains" in
  let prepared = Hmac.prepare key in
  let msgs d = List.init 400 (fun i -> Bytes.make (i mod 200) (Char.chr ((d * 31) + (i mod 97)))) in
  let work d () =
    List.map (fun m -> (Sha256.digest m, Hmac.apply prepared [ (m, 0, Bytes.length m) ])) (msgs d)
  in
  let domains = List.map (fun d -> Domain.spawn (work d)) [ 1; 2 ] in
  List.iter2
    (fun d got ->
      List.iter2
        (fun m (digest, tag) ->
          Alcotest.(check string) "digest" (Hex.encode (Sha256_reference.digest m)) (Hex.encode digest);
          Alcotest.(check string) "tag" (Hex.encode (reference_hmac ~key m)) (Hex.encode tag))
        (msgs d) got)
    [ 1; 2 ] (List.map Domain.join domains)

let test_sha256_midstate_boundary () =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "abc";
  match Sha256.midstate ctx with
  | _ -> Alcotest.fail "midstate inside a block accepted"
  | exception Invalid_argument _ -> ()

let test_sha256_update_sub_bounds () =
  let ctx = Sha256.init () in
  let b = Bytes.make 10 'a' in
  List.iter
    (fun (off, len) ->
      match Sha256.update_sub ctx b off len with
      | () -> Alcotest.failf "slice (%d, %d) of 10 bytes accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, 11); (5, 6); (11, 0); (3, -1) ]

(* ------------------------------------------------------------------ *)
(* HMAC-SHA-256                                                        *)

(* RFC 4231 cases 1-4, 6 and 7 (6 and 7 hash a 131-byte key first).
   Each key is prepared once and MACs every case's message in turn,
   twice over, in whole and in two parts. Its own message must give the
   RFC's tag each time and every other message the reference tag, so a
   prepared key keeps no state from one message to the next. *)
let test_hmac_rfc4231 () =
  let cases =
    [
      ( Bytes.make 20 '\x0b',
        Bytes.of_string "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( Bytes.of_string "Jefe",
        Bytes.of_string "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( Bytes.make 20 '\xaa',
        Bytes.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( Bytes.init 25 (fun i -> Char.chr (i + 1)),
        Bytes.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( Bytes.make 131 '\xaa',
        Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( Bytes.make 131 '\xaa',
        Bytes.of_string
          "This is a test using a larger than block-size key and a larger than block-size \
           data. The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ]
  in
  List.iteri
    (fun i (key, msg, expected) ->
      let prepared = Hmac.prepare key in
      for round = 1 to 2 do
        List.iteri
          (fun j (_, other, _) ->
            let n = Bytes.length other in
            let want = if i = j then expected else Hex.encode (reference_hmac ~key other) in
            let what = Printf.sprintf "key %d, message %d, round %d" (i + 1) (j + 1) round in
            check_hex what want (Hex.encode (Hmac.apply prepared [ (other, 0, n) ]));
            check_hex (what ^ ", in two parts") want
              (Hex.encode (Hmac.apply prepared [ (other, 0, n / 2); (other, n / 2, n - (n / 2)) ])))
          cases
      done;
      check_hex (Printf.sprintf "key %d raw" (i + 1)) expected (Hex.encode (Hmac.mac ~key msg)))
    cases;
  check_hex "Jefe"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode
       (Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?")))

(* A prepared key is shared, not copied, between domains: two domains
   MAC the same messages under one and get the same tags as this one. *)
let test_hmac_prepared_across_domains () =
  let prepared = Hmac.prepare (Bytes.of_string "shared prepared key") in
  let tags () =
    List.init 600 (fun n ->
        let m = Bytes.make n (Char.chr (n land 0xff)) in
        Hmac.apply prepared [ (m, 0, n) ])
  in
  let a = Domain.spawn tags and b = Domain.spawn tags in
  let a = Domain.join a and b = Domain.join b in
  let here = tags () in
  Alcotest.(check (list bytes)) "domain 1 = domain 2" a b;
  Alcotest.(check (list bytes)) "domains = this domain" here a

(* ------------------------------------------------------------------ *)
(* HKDF (RFC 5869, SHA-256)                                            *)

(* RFC 5869 cases 1-3 (case 2's inputs are longer than a block,
   case 3's salt and info empty). Each salt is prepared once and
   derives from every case's IKM in turn, twice over; its own case
   must give the RFC's OKM each time. *)
let test_hkdf_rfc5869 () =
  let seq a b = Bytes.init (b - a + 1) (fun i -> Char.chr (a + i)) in
  let cases =
    [
      ( Hex.decode "000102030405060708090a0b0c",
        Bytes.make 22 '\x0b',
        Hex.decode "f0f1f2f3f4f5f6f7f8f9",
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
      );
      ( seq 0x60 0xaf,
        seq 0x00 0x4f,
        seq 0xb0 0xff,
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
      );
      ( Bytes.empty,
        Bytes.make 22 '\x0b',
        Bytes.empty,
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8" );
    ]
  in
  List.iteri
    (fun i (salt, _, _, _) ->
      let salt = Hmac.prepare salt in
      for round = 1 to 2 do
        List.iteri
          (fun j (_, ikm, info, okm) ->
            let okm' = Hex.encode (Hkdf.derive ~salt ~ikm ~info (String.length okm / 2)) in
            let what = Printf.sprintf "salt %d, ikm %d, round %d" (i + 1) (j + 1) round in
            if i = j then check_hex (what ^ " okm") okm okm'
            else Alcotest.(check bool) (what ^ ": another salt's okm") false (okm = okm'))
          cases
      done)
    cases

let test_hkdf_expand_bounds () =
  let salt = Hmac.prepare Bytes.empty and ikm = Bytes.of_string "ikm" in
  let derive len = Hkdf.derive ~salt ~ikm ~info:Bytes.empty len in
  Alcotest.(check int) "max length" (255 * 32) (Bytes.length (derive (255 * 32)));
  (match derive 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "len 0 accepted");
  match derive ((255 * 32) + 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-long output accepted"

let test_hkdf_label_info () =
  let a = Hkdf.label_info "rs" [ 1; 2 ] in
  Alcotest.(check bool) "deterministic" true (Bytes.equal a (Hkdf.label_info "rs" [ 1; 2 ]));
  Alcotest.(check bool) "label-sensitive" false (Bytes.equal a (Hkdf.label_info "rt" [ 1; 2 ]));
  Alcotest.(check bool) "field-sensitive" false (Bytes.equal a (Hkdf.label_info "rs" [ 1; 3 ]));
  Alcotest.(check int) "layout: label || 2 x i64" (2 + 16) (Bytes.length a)

(* ------------------------------------------------------------------ *)
(* AES-128                                                             *)

(* Each block vector runs on two schedules of its key: one whose first
   use is an encrypt, and one whose first use is a decrypt, which builds
   the inverse schedule before the forward one has served a block. *)
let check_block_vectors name raw cases =
  let enc k (pt, ct) =
    check_hex (name ^ " encrypt") ct (Hex.encode (Aes128.encrypt_block k (Hex.decode pt)))
  in
  let dec k (pt, ct) =
    check_hex (name ^ " decrypt") pt (Hex.encode (Aes128.decrypt_block k (Hex.decode ct)))
  in
  let k = Aes128.expand (Hex.decode raw) in
  List.iter (enc k) cases;
  List.iter (dec k) cases;
  let k = Aes128.expand (Hex.decode raw) in
  List.iter (dec k) cases;
  List.iter (enc k) cases

let test_aes_fips197 () =
  check_block_vectors "fips197 appendix C.1" "000102030405060708090a0b0c0d0e0f"
    [ ("00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a") ]

let test_aes_sp800_38a_ecb () =
  check_block_vectors "ecb" "2b7e151628aed2a6abf7158809cf4f3c"
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]

let test_aes_sp800_38a_ctr () =
  let raw = Hex.decode "2b7e151628aed2a6abf7158809cf4f3c" in
  let nonce = Hex.decode "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt =
    Hex.decode
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
       30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
  in
  let expected =
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
     5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
  in
  check_hex "ctr stream" expected (Hex.encode (Aes128.ctr_transform (Aes128.expand raw) ~nonce pt));
  let k = Aes128.expand raw in
  ignore (Aes128.decrypt_block k nonce);
  check_hex "ctr stream after a decrypt" expected (Hex.encode (Aes128.ctr_transform k ~nonce pt))

(* A schedule holds only the packed forward round keys (a 3-word record,
   a 24-word 176-byte string and a 2-word atomic cell) until its first
   decrypt, which adds the 45-word inverse schedule once. The 30 words of
   a fresh one count the empty array's header, which all schedules
   share. *)
let test_aes_schedule_words () =
  let k = Aes128.expand (Bytes.make 16 'k') and block = Bytes.make 16 'b' in
  let words () = Obj.reachable_words (Obj.repr k) in
  let allocated f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  Alcotest.(check int) "fresh schedule" 30 (words ());
  ignore (Aes128.encrypt_block k block);
  ignore (Aes128.ctr_transform k ~nonce:block (Bytes.make 100 'd'));
  Alcotest.(check int) "encrypt and ctr build no inverse schedule" 30 (words ());
  let first = allocated (fun () -> Aes128.decrypt_block k block) in
  Alcotest.(check int) "first decrypt adds the inverse schedule" (29 + 45) (words ());
  let second = allocated (fun () -> Aes128.decrypt_block k block) in
  let third = allocated (fun () -> Aes128.decrypt_block k block) in
  Alcotest.(check int) "later decrypts keep it" (29 + 45) (words ());
  Alcotest.(check (float 0.)) "later decrypts allocate alike" second third;
  Alcotest.(check bool) "only the first decrypt builds it" true (first -. second >= 45.)

let test_aes_bad_sizes () =
  (match Aes128.expand (Bytes.create 15) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short key must be rejected");
  let key = Aes128.expand (Bytes.create 16) in
  match Aes128.encrypt_block key (Bytes.create 17) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad block size must be rejected"

let prop_aes_roundtrip =
  QCheck.Test.make ~name:"aes decrypt(encrypt(b)) = b" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.return 16)) (string_of_size (QCheck.Gen.return 16)))
    (fun (k, b) ->
      let key = Aes128.expand (Bytes.of_string k) in
      let block = Bytes.of_string b in
      Bytes.equal (Aes128.decrypt_block key (Aes128.encrypt_block key block)) block)

let prop_aes_ctr_involution =
  QCheck.Test.make ~name:"aes ctr is an involution" ~count:100
    QCheck.(
      triple
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size Gen.(0 -- 100)))
    (fun (k, n, data) ->
      let key = Aes128.expand (Bytes.of_string k) in
      let nonce = Bytes.of_string n in
      let data = Bytes.of_string data in
      Bytes.equal (Aes128.ctr_transform key ~nonce (Aes128.ctr_transform key ~nonce data)) data)

(* Equivalence against the byte-oriented cipher (Aes128_reference is a
   verbatim copy of it): every block and CTR stream byte-identical. *)
let prop_aes_matches_reference =
  QCheck.Test.make ~name:"aes byte-identical to reference" ~count:300
    QCheck.(
      quad
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size (QCheck.Gen.return 16))
        (string_of_size Gen.(0 -- 300)))
    (fun (k, b, n, data) ->
      let raw = Bytes.of_string k and block = Bytes.of_string b in
      let nonce = Bytes.of_string n and data = Bytes.of_string data in
      let key = Aes128.expand raw and ref_key = Aes128_reference.expand raw in
      Bytes.equal (Aes128.encrypt_block key block) (Aes128_reference.encrypt_block ref_key block)
      && Bytes.equal (Aes128.decrypt_block key block)
           (Aes128_reference.decrypt_block ref_key block)
      && Bytes.equal
           (Aes128.ctr_transform key ~nonce data)
           (Aes128_reference.ctr_transform ref_key ~nonce data))

(* ------------------------------------------------------------------ *)
(* Key                                                                 *)

let test_key_wrap_roundtrip () =
  let rng = Prng.create 42 in
  let kek = Key.fresh rng and k = Key.fresh rng in
  let wrapped = Key.wrap ~kek k in
  Alcotest.(check int) "wrapped size" Key.wrapped_size (Bytes.length wrapped);
  Alcotest.(check bool) "unwrap inverts wrap" true
    (match Key.unwrap_with (Key.cipher kek) wrapped with Some k' -> Key.equal k' k | None -> false);
  Alcotest.(check bool)
    "wrong kek rejected" true
    (Key.unwrap_with (Key.cipher (Key.fresh rng)) wrapped = None);
  let corrupted = Bytes.copy wrapped in
  Bytes.set corrupted 3 (Char.chr (Char.code (Bytes.get corrupted 3) lxor 1));
  Alcotest.(check bool) "corrupted ciphertext rejected" true (Key.unwrap_with (Key.cipher kek) corrupted = None)

let test_key_fingerprint () =
  let rng = Prng.create 7 in
  let k = Key.fresh rng in
  Alcotest.(check int) "fingerprint is 8 hex chars" 8 (String.length (Key.fingerprint k))

let test_key_cached_cipher () =
  (* The pre-expanded-schedule entry points must be bit-identical to the
     expand-per-call originals. *)
  let rng = Prng.create 314 in
  let kek = Key.fresh rng and k = Key.fresh rng in
  let c = Key.cipher kek in
  Alcotest.(check string)
    "wrap_with = wrap"
    (Hex.encode (Key.wrap ~kek k))
    (Hex.encode (Key.wrap_with c k));
  Alcotest.(check bool)
    "unwrap_with inverts wrap" true
    (match Key.unwrap_with c (Key.wrap ~kek k) with
    | Some k' -> Key.equal k' k
    | None -> false);
  Alcotest.(check bool)
    "unwrap_with rejects wrong kek" true
    (Key.unwrap_with (Key.cipher k) (Key.wrap ~kek k) = None)

let prop_key_cached_wrap =
  QCheck.Test.make ~name:"wrap_with = wrap for random keys" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let kek = Key.fresh (Prng.create (s1 + 1)) in
      let k = Key.fresh (Prng.create (s2 + 1000000)) in
      Bytes.equal (Key.wrap_with (Key.cipher kek) k) (Key.wrap ~kek k))

let prop_key_wrap =
  QCheck.Test.make ~name:"key wrap roundtrip (random keys)" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let kek = Key.fresh (Prng.create (s1 + 1)) in
      let k = Key.fresh (Prng.create (s2 + 1000000)) in
      match Key.unwrap_with (Key.cipher kek) (Key.wrap ~kek k) with
      | Some k' -> Key.equal k' k
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)

(* The registry checks itself when the module loads; this restates
   the property over every label the interface exports. *)
let test_labels_prefix_free () =
  let labels =
    Labels.
      [ traffic; resume; resync; record_salt; resume_salt; oft_blind; oft_mix; key_check ]
  in
  let sorted = List.sort compare labels in
  let rec distinct = function a :: (b :: _ as tl) -> a <> b && distinct tl | _ -> true in
  Alcotest.(check bool) "labels distinct" true (distinct sorted);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool)
              (Printf.sprintf "%S is not a prefix of %S" a b)
              false
              (String.length a < String.length b && String.sub b 0 (String.length a) = a))
        labels)
    labels

let test_labels_expand_contexts_disjoint () =
  let salt = Hmac.prepare Bytes.empty and ikm = Bytes.make 32 '\x42' in
  let expand label fields = Hkdf.derive ~salt ~ikm ~info:(Hkdf.label_info label fields) 16 in
  let a = expand Labels.resume [ 7 ] in
  let b = expand Labels.traffic [ 7 ] in
  Alcotest.(check bool) "resume and traffic expand differently" false (Bytes.equal a b);
  Alcotest.(check bool) "field-sensitive" false (Bytes.equal a (expand Labels.resume [ 8 ]));
  Alcotest.(check bool) "deterministic" true (Bytes.equal a (expand Labels.resume [ 7 ]))

(* ------------------------------------------------------------------ *)
(* Pkg                                                                 *)

let test_pkg_default_matches_primitives () =
  (* The bound cipher and KDF must be bit-identical to the in-tree
     primitives they name: this is what keeps the seed oracles green. *)
  let kb = Hex.decode "2b7e151628aed2a6abf7158809cf4f3c" in
  let blk = Hex.decode "6bc1bee22e409f96e93d7e117393172a" in
  let nonce = Hex.decode "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let s = Pkg.Cipher.expand kb in
  check_hex "encrypt_block = Aes128"
    (Hex.encode (Aes128.encrypt_block (Aes128.expand kb) blk))
    (Hex.encode (Pkg.Cipher.encrypt_block s blk));
  check_hex "decrypt inverts" (Hex.encode blk)
    (Hex.encode (Pkg.Cipher.decrypt_block s (Pkg.Cipher.encrypt_block s blk)));
  check_hex "ctr_transform = Aes128"
    (Hex.encode (Aes128.ctr_transform (Aes128.expand kb) ~nonce blk))
    (Hex.encode (Pkg.Cipher.ctr_transform s ~nonce blk));
  check_hex "prf = HMAC-SHA-256"
    (Hex.encode (Hmac.mac ~key:kb blk))
    (Hex.encode (Pkg.Kdf.prf ~key:kb blk));
  check_hex "derive = HKDF"
    (Hex.encode (Hkdf.derive ~salt:(Hmac.prepare kb) ~ikm:blk ~info:Bytes.empty 32))
    (Hex.encode (Pkg.Kdf.derive ~salt:(Pkg.Kdf.salt kb) ~ikm:blk ~info:Bytes.empty 32))

(* A cached KEK schedule is the cipher's own schedule, with no box
   around it: the keytree and every member hold one per key. *)
let test_pkg_schedule_unboxed () =
  let k = Key.fresh (Prng.create 7) in
  Alcotest.(check int) "reachable words"
    (Obj.reachable_words (Obj.repr (Aes128.expand (Key.to_bytes k))))
    (Obj.reachable_words (Obj.repr (Key.cipher k)))

let test_wrap_format_pinned () =
  (* Pin the classical wrap layout from independent parts: the block is
     FIPS-197 Appendix C.1's AES-128 vector, and the check is SHA-256
     over the label and the key, cut to 16 bytes. *)
  let kek = Key.of_bytes (Hex.decode "000102030405060708090a0b0c0d0e0f") in
  let k = Key.of_bytes (Hex.decode "00112233445566778899aabbccddeeff") in
  let label = "gkm-key-check1" in
  check_hex "the check's label" label Labels.key_check;
  let expected_check =
    Bytes.sub (Sha256.digest (Bytes.cat (Bytes.of_string label) (Key.to_bytes k))) 0 16
  in
  check_hex "check = SHA-256(label || k)[0:16]" (Hex.encode expected_check) (Hex.encode (Key.check k));
  check_hex "wrap = E(k) || check(k)"
    ("69c4e0d86a7b0430d8cdb78070b4c55a" ^ Hex.encode expected_check)
    (Hex.encode (Key.wrap ~kek k));
  check_hex "the check computed once"
    (Hex.encode (Key.wrap ~kek k))
    (Hex.encode (Key.wrap_checked_with (Key.cipher kek) ~check:expected_check k))

(* Every way to get a wrap wrong fails closed: a wrong KEK, any single
   flipped bit of the block or of the check, and another key's check. *)
let test_key_wrap_rejections () =
  let rng = Prng.create 43 in
  let kek = Key.fresh rng and k = Key.fresh rng and other = Key.fresh rng in
  let c = Key.cipher kek in
  let wrapped = Key.wrap_with c k in
  let rejected what ct = Alcotest.(check bool) what true (Key.unwrap_with c ct = None) in
  Alcotest.(check bool) "a wrong KEK" true (Key.unwrap_with (Key.cipher other) wrapped = None);
  for bit = 0 to (8 * Key.wrapped_size) - 1 do
    let ct = Bytes.copy wrapped in
    Bytes.set ct (bit / 8) (Char.chr (Char.code (Bytes.get ct (bit / 8)) lxor (1 lsl (bit mod 8))));
    rejected
      (Printf.sprintf "a flipped %s bit %d" (if bit < 8 * Key.size then "block" else "check") bit)
      ct
  done;
  let copied = Bytes.copy wrapped in
  Bytes.blit (Key.check other) 0 copied Key.size Key.check_size;
  rejected "another key's check" copied;
  Alcotest.(check bool) "the intact wrap" true (Key.unwrap_with c wrapped = Some k)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_copy () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.restore (Prng.save a) in
  Alcotest.(check int64) "a restored copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  (* Streams should differ immediately (overwhelmingly likely). *)
  Alcotest.(check bool) "split streams differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_exponential_mean () =
  let rng = Prng.create 2024 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.3f within 2%% of 3.0" mean)
    true
    (abs_float (mean -. 3.0) < 0.06)

let test_prng_bernoulli_rate () =
  let rng = Prng.create 77 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.2 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.4f close to 0.2" rate)
    true
    (abs_float (rate -. 0.2) < 0.01)

let prop_prng_int_range =
  QCheck.Test.make ~name:"prng int is within [0, n)" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let prop_prng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle yields a permutation" ~count:200
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 50) int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Aead: opening by range                                              *)

let aead_key = Aead.of_bytes (Bytes.init Aead.key_size (fun i -> Char.chr (i * 7)))
let aead_ad = Bytes.of_string "range"

(* Bytes [[off, off + len)] of the plaintext, read alone by a parse
   that skips the rest. *)
let read_range o off len =
  Result.get_ok
    (Aead.parse o ~off (fun r ->
         let b = Codec.bytes r len in
         Codec.skip r (Codec.remaining r);
         b))

(* A sealed plaintext of 0..200 bytes and ranges in it, each an offset
   and a length that may cross blocks or end in the final partial
   block. *)
let arb_ranges =
  QCheck.make
    ~print:(fun (nonce, pt, ranges) ->
      Printf.sprintf "nonce %s, %d bytes, ranges %s" (Hex.encode (Bytes.of_string nonce))
        (String.length pt)
        (String.concat " " (List.map (fun (o, l) -> Printf.sprintf "[%d,+%d)" o l) ranges)))
    QCheck.Gen.(
      triple (string_size (return 16)) (string_size (0 -- 200)) (list_size (1 -- 8) (pair nat nat))
      >|= fun (nonce, pt, raw) ->
      let n = String.length pt in
      ( nonce,
        pt,
        List.map
          (fun (a, b) ->
            let off = a mod (n + 1) in
            (off, b mod (n - off + 1)))
          raw ))

let prop_range_equals_slice =
  QCheck.Test.make ~name:"a range decrypt is the whole open's slice" ~count:300 arb_ranges
    (fun (nonce, pt, ranges) ->
      let nonce = Bytes.of_string nonce and pt = Bytes.of_string pt in
      let sealed = Aead.seal aead_key ~nonce ~ad:aead_ad pt in
      let whole = Result.get_ok (Aead.open_ aead_key ~nonce ~ad:aead_ad sealed) in
      let o = Result.get_ok (Aead.verify aead_key ~nonce ~ad:aead_ad sealed) in
      let touched = Hashtbl.create 16 in
      List.for_all
        (fun (off, len) ->
          for i = off / 16 to (off + len - 1) / 16 do
            if len > 0 then Hashtbl.replace touched i ()
          done;
          Bytes.equal (read_range o off len) (Bytes.sub whole off len)
          (* each counter block decrypted once, when first read *)
          && Aead.blocks_decrypted o = Hashtbl.length touched)
        ranges
      && Bytes.equal whole pt
      && Bytes.equal (Aead.plaintext o) pt
      && Aead.blocks_decrypted o = Aead.blocks o)

(* Every byte of a sealed blob is under the MAC, and [verify] is the
   step that decrypts nothing: a flip anywhere fails there, and an
   intact blob leaves it with no block decrypted. *)
let test_aead_flip_fails_before_decrypt () =
  let nonce = Bytes.make 16 '\x42' in
  let pt = Bytes.init 70 (fun i -> Char.chr i) in
  let sealed = Aead.seal aead_key ~nonce ~ad:aead_ad pt in
  (match Aead.verify aead_key ~nonce ~ad:aead_ad sealed with
  | Ok o ->
      Alcotest.(check int) "no block decrypted by the MAC check" 0 (Aead.blocks_decrypted o);
      Alcotest.(check int) "blocks" 5 (Aead.blocks o)
  | Error e -> Alcotest.fail e);
  for i = 0 to Bytes.length sealed - 1 do
    let bad = Bytes.copy sealed in
    Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x01);
    match Aead.verify aead_key ~nonce ~ad:aead_ad bad with
    | Ok _ -> Alcotest.failf "byte %d flipped, still verified" i
    | Error _ -> ()
  done

(* CTR counts the nonce as one 128-bit big-endian number: a block
   index carries across the 64-bit halves and wraps at 2^128, one
   block at a time or all at once, as the reference's byte-wise
   increment does. *)
let test_ctr_block_counting () =
  let raw = Bytes.init 16 (fun i -> Char.chr (i + 1)) in
  let key = Aes128.expand raw and ref_key = Aes128_reference.expand raw in
  let data = Bytes.init 100 (fun i -> Char.chr (i * 3 land 0xff)) in
  List.iter
    (fun nonce_hex ->
      let nonce = Hex.decode nonce_hex in
      let expected = Aes128_reference.ctr_transform ref_key ~nonce data in
      check_hex ("ctr_transform from " ^ nonce_hex) (Hex.encode expected)
        (Hex.encode (Aes128.ctr_transform key ~nonce data));
      let out = Bytes.make 100 '\000' in
      List.iter
        (fun (first, count) -> Aes128.ctr_blocks key ~nonce ~len:100 ~first ~count data out)
        [ (6, 1); (2, 2); (0, 1); (4, 2); (1, 1) ];
      check_hex ("ctr_blocks from " ^ nonce_hex) (Hex.encode expected) (Hex.encode out))
    [
      "00000000000000000000000000000000";
      "0000000000000000fffffffffffffffd";
      "00000000000000fffffffffffffffffe";
      "fffffffffffffffffffffffffffffffe";
    ];
  match Aes128.ctr_blocks key ~nonce:(Bytes.make 16 '\000') ~len:100 ~first:6 ~count:2 data data with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a block past the data accepted"

let () =
  Alcotest.run "gkm_crypto"
    [
      ( "hex",
        [
          Alcotest.test_case "encode" `Quick test_hex_encode;
          Alcotest.test_case "decode" `Quick test_hex_decode;
          Alcotest.test_case "decode errors" `Quick test_hex_decode_errors;
        ]
        @ qsuite [ prop_hex_roundtrip ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "one million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental chunking" `Quick test_sha256_incremental_split;
        ]
        @ qsuite [ prop_sha256_chunking; prop_sha256_hmac_match_reference ]
        @ [
            Alcotest.test_case "update_sub bounds" `Quick test_sha256_update_sub_bounds;
            Alcotest.test_case "midstate on a block boundary" `Quick
              test_sha256_midstate_boundary;
            Alcotest.test_case "two domains at once" `Quick test_sha256_two_domains;
          ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "prepared key across domains" `Quick
            test_hmac_prepared_across_domains;
        ] );
      ( "hkdf",
        [
          Alcotest.test_case "RFC 5869 vectors" `Quick test_hkdf_rfc5869;
          Alcotest.test_case "expand bounds" `Quick test_hkdf_expand_bounds;
          Alcotest.test_case "label_info" `Quick test_hkdf_label_info;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "FIPS 197" `Quick test_aes_fips197;
          Alcotest.test_case "SP800-38A ECB" `Quick test_aes_sp800_38a_ecb;
          Alcotest.test_case "SP800-38A CTR" `Quick test_aes_sp800_38a_ctr;
          Alcotest.test_case "size validation" `Quick test_aes_bad_sizes;
          Alcotest.test_case "schedule words" `Quick test_aes_schedule_words;
        ]
        @ qsuite [ prop_aes_roundtrip; prop_aes_ctr_involution; prop_aes_matches_reference ] );
      ( "key",
        [
          Alcotest.test_case "wrap roundtrip" `Quick test_key_wrap_roundtrip;
          Alcotest.test_case "fingerprint" `Quick test_key_fingerprint;
          Alcotest.test_case "cached cipher" `Quick test_key_cached_cipher;
          Alcotest.test_case "wrap format pinned" `Quick test_wrap_format_pinned;
          Alcotest.test_case "wrap rejections" `Quick test_key_wrap_rejections;
        ]
        @ qsuite [ prop_key_wrap; prop_key_cached_wrap ] );
      ( "labels",
        [
          Alcotest.test_case "prefix-free registry" `Quick test_labels_prefix_free;
          Alcotest.test_case "expand contexts disjoint" `Quick test_labels_expand_contexts_disjoint;
        ] );
      ( "pkg",
        [
          Alcotest.test_case "default matches primitives" `Quick test_pkg_default_matches_primitives;
          Alcotest.test_case "schedule unboxed" `Quick test_pkg_schedule_unboxed;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
        ]
        @ qsuite [ prop_prng_int_range; prop_prng_shuffle_permutation ] );
      ( "range",
        qsuite [ prop_range_equals_slice ]
        @ [
            Alcotest.test_case "a flipped byte fails before any decrypt" `Quick
              test_aead_flip_fails_before_decrypt;
            Alcotest.test_case "ctr blocks count as the reference" `Quick test_ctr_block_counting;
          ] );
    ]
