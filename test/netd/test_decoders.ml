(* Every decoder of outside bytes returns [Ok] or [Error] and never
   raises: key-tree and organization snapshots, REKEY packet
   payloads, resumption tickets, and the member's resumption blob
   (through [Client.connect ~resume]). Each starts from a blob its own
   encoder produced, then is damaged by random byte flips and cut at
   every length. *)

module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree
module Packet = Gkm_transport.Packet
module Record = Gkm_record.Record
module Organization = Gkm.Organization
module Scheme = Gkm.Scheme
module Loop = Gkm_netd.Loop
module Server = Gkm_netd.Server
module Client = Gkm_netd.Client

let run_until loop cond =
  let deadline = Unix.gettimeofday () +. 30.0 in
  Loop.run loop ~until:(fun () -> cond () || Unix.gettimeofday () > deadline);
  if not (cond ()) then Alcotest.fail "run_until: condition not reached before timeout"

let keytree () =
  let t = Keytree.create ~degree:3 (Prng.create 7) in
  ignore
    (Keytree.batch_update t ~departed:[]
       ~joined:(List.init 9 (fun m -> (m, Key.fresh (Prng.create (m + 100))))));
  ignore (Keytree.batch_update t ~departed:[ 2; 5 ] ~joined:[]);
  t

let org_blob selector =
  let spec =
    Result.get_ok (Organization.spec_of_string ~degree:3 ~s_period:3 ~seed:5 selector)
  in
  let module O = (val Organization.create spec : Organization.S) in
  List.iter
    (fun m ->
      ignore
        (O.register ~member:m
           ~cls:(if m mod 2 = 0 then Scheme.Short else Scheme.Long)
           ~loss:(if m mod 3 = 0 then 0.2 else 0.01)))
    (List.init 8 Fun.id);
  ignore (O.rekey ());
  O.enqueue_departure 4;
  ignore (O.register ~member:30 ~cls:Scheme.Long ~loss:0.01);
  (spec, O.snapshot ())

let rekey_entries () =
  let s = Scheme.create { (Scheme.default_config Scheme.One_keytree) with degree = 3; seed = 11 } in
  let register m = ignore (Scheme.register s ~member:m ~cls:Scheme.Long) in
  List.iter register (List.init 8 Fun.id);
  ignore (Scheme.rekey s);
  register 40;
  Scheme.enqueue_departure s 3;
  (Option.get (Scheme.rekey s)).entries

(* The same entries with ids past i32, as composed organizations' bands
   give them. *)
let banded_entries () =
  List.map
    (fun (e : Gkm_lkh.Rekey_msg.entry) ->
      { e with target_node = e.target_node + 5_000_000_000; wrapped_under = -e.wrapped_under })
    (rekey_entries ())

let ticket_sealer = Record.Ticket.Sealer.create ~seed:9

let ticket () =
  Record.Ticket.Sealer.issue ticket_sealer
    {
      Record.Ticket.member = 12;
      cls = `Long;
      loss = 0.01;
      issued_epoch = 3;
      issued_rekey = 4;
      path_digest = Record.Ticket.path_digest [ 1; 2; 3 ];
    }

(* A live server and one member holding a ticket: the source of a real
   resumption blob, and the port [Client.connect ~resume] dials. *)
let resume_fixture =
  lazy
    (let loop = Loop.create () in
     let srv =
       Server.create ~loop { Server.default_config with port = 0; tp = 0.01 }
     in
     let c = Client.connect ~loop { (Client.config ~port:(Server.port srv)) with seed = 3 } in
     run_until loop (fun () -> Client.is_member c && Client.export_resumption c <> None);
     let blob = Option.get (Client.export_resumption c) in
     (loop, srv, blob))

(* Connect with [blob] as the resumption state and report what the
   client made of it; the connection is dropped before it says a word. *)
let resume_with blob =
  let loop, srv, _ = Lazy.force resume_fixture in
  let c =
    Client.connect ~loop { (Client.config ~port:(Server.port srv)) with resume = Some blob }
  in
  let err = Client.last_error c in
  Client.kill c;
  Loop.step ~max_wait:0.0 loop;
  err

let accepted = Result.is_ok

let decoders =
  lazy
    (let orgs =
       List.map
         (fun sel ->
           let spec, blob = org_blob sel in
           ("organization " ^ sel, blob, fun b -> accepted (Organization.restore spec b)))
         [ "one"; "qt"; "tt"; "pt"; "loss:0.05"; "random:2"; "composed" ]
     in
     let _, _, resumption = Lazy.force resume_fixture in
     [
       ("keytree v2", Keytree.snapshot (keytree ()), fun b -> accepted (Keytree.restore b));
       ( "packet",
         (List.hd (Packet.encode_entries ~capacity_bytes:1024 (rekey_entries ()))).payload,
         fun b -> accepted (Packet.decode_payload b) );
       ( "packet banded ids",
         (List.hd (Packet.encode_entries ~capacity_bytes:1024 (banded_entries ()))).payload,
         fun b -> accepted (Packet.decode_payload b) );
       ("ticket", ticket (), fun b -> accepted (Record.Ticket.Sealer.open_ ticket_sealer b));
       ( "resumption blob",
         resumption,
         fun b ->
           match resume_with b with
           | None -> true
           | Some e when String.starts_with ~prefix:"resumption ignored: " e -> false
           | Some e -> failwith ("unexpected last_error " ^ e) );
     ]
     @ orgs)

let flip blob flips =
  let b = Bytes.copy blob in
  let n = Bytes.length b in
  if n > 0 then
    List.iter
      (fun (pos, x) ->
        let i = pos mod n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (x mod 255)))))
      flips;
  b

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"outside-bytes decoders never raise on flipped, truncated blobs"
    ~count:25
    QCheck.(small_list (pair (int_bound 1_000_000) (int_bound 254)))
    (fun flips ->
      List.iter
        (fun (name, blob, decode) ->
          let damaged = flip blob flips in
          for len = 0 to Bytes.length damaged do
            match decode (Bytes.sub damaged 0 len) with
            | (_ : bool) -> ()
            | exception e ->
                QCheck.Test.fail_reportf "%s: %d flips, cut at %d/%d: raised %s" name
                  (List.length flips) len (Bytes.length damaged) (Printexc.to_string e)
          done)
        (Lazy.force decoders);
      true)

let test_valid_blobs_decode () =
  List.iter
    (fun (name, blob, decode) -> Alcotest.(check bool) (name ^ " decodes intact") true (decode blob))
    (Lazy.force decoders)

(* [blob] with its version byte (after the 4-byte magic) set to
   [version] and [extra] inserted behind it: the layout of a retired
   format that differed from the current one by a header byte. *)
let with_version blob version extra =
  let head = Bytes.sub_string blob 0 4 in
  let tail = Bytes.sub_string blob 5 (Bytes.length blob - 5) in
  Bytes.of_string (head ^ String.make 1 (Char.chr version) ^ extra ^ tail)

(* A raise escapes and fails the test case. *)
let refused what = function
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error (_ : string) -> ()

(* The derived key-refresh formats are gone: a GKTR v3 key tree (v2
   plus a mode byte), a version-2 scheme snapshot (v1 plus a mode
   byte) and a selector with the derived suffix are refused, not
   read. *)
let test_retired_formats_refused () =
  let tree = Keytree.snapshot (keytree ()) in
  refused "keytree v3 (derived)" (Keytree.restore (with_version tree 3 "\001"));
  refused "keytree v3 (wrap)" (Keytree.restore (with_version tree 3 "\000"));
  let spec, blob = org_blob "tt" in
  Alcotest.(check bool) "scheme v1 decodes" true (accepted (Organization.restore spec blob));
  refused "scheme snapshot v2 (derived)" (Scheme.restore (with_version blob 2 "\001"));
  refused "scheme snapshot v2 (wrap)" (Scheme.restore (with_version blob 2 "\000"));
  List.iter
    (fun sel ->
      let sel = String.concat "+" [ sel; "derived" ] in
      refused sel (Organization.spec_of_string sel))
    [ "tt"; "pt"; "loss:0.05" ]

(* Trailing bytes are an error for every decoder but the payload
   codec: one extra byte on a resumption blob is refused, and
   reported. *)
let test_resumption_trailing_byte () =
  let _, _, blob = Lazy.force resume_fixture in
  Alcotest.(check (option string)) "intact blob accepted" None (resume_with blob);
  match resume_with (Bytes.cat blob (Bytes.make 1 '\000')) with
  | Some e ->
      Alcotest.(check bool) ("refused: " ^ e) true
        (String.starts_with ~prefix:"resumption ignored: " e)
  | None -> Alcotest.fail "resumption blob with a trailing byte accepted"

(* ... while a REKEY payload zero-extended by FEC recovery still
   decodes to the same entries. *)
let test_payload_zero_extended () =
  List.iter
    (fun (name, entries) ->
      List.iter
        (fun (p : Packet.t) ->
          let padded = Bytes.cat p.payload (Bytes.make 37 '\000') in
          let entries b = Result.get_ok (Packet.decode_payload b) in
          Alcotest.(check bool)
            (Printf.sprintf "%s seq %d: same entries" name p.seq)
            true
            (entries p.payload = entries padded))
        (Packet.encode_entries ~capacity_bytes:256 entries))
    [ ("plain", rekey_entries ()); ("banded", banded_entries ()) ]

let () =
  Alcotest.run "decoders"
    [
      ( "codec",
        [
          Alcotest.test_case "valid blobs decode" `Quick test_valid_blobs_decode;
          Alcotest.test_case "retired derived-mode formats refused" `Quick
            test_retired_formats_refused;
          QCheck_alcotest.to_alcotest prop_decoders_never_raise;
          Alcotest.test_case "resumption blob with a trailing byte refused" `Quick
            test_resumption_trailing_byte;
          Alcotest.test_case "zero-extended payload decodes unchanged" `Quick
            test_payload_zero_extended;
        ] );
    ]
