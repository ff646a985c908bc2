(* Quickstart: a key server, nine members, one eviction.

   Demonstrates the base LKH machinery through the one-keytree scheme
   (the paper's baseline): batched admission, the logical key tree,
   rekey messages, member-side decryption, and forward/backward
   secrecy. Mirrors the example of Fig. 1 in the
   paper (users u1..u9 under a degree-3 tree).

   Run with: dune exec examples/quickstart.exe *)

module Key = Gkm_crypto.Key
module Scheme = Gkm.Scheme
module Member = Gkm_lkh.Member
module Rekey_msg = Gkm_lkh.Rekey_msg

let section title = Printf.printf "\n== %s ==\n" title

let () =
  section "Admitting u1..u9 as one batch";
  let server =
    Scheme.create { (Scheme.default_config Scheme.One_keytree) with degree = 3; seed = 2024 }
  in
  (* Each registration hands the member its individual key over the
     out-of-band secure channel. *)
  let bootstrap = Hashtbl.create 9 in
  for u = 1 to 9 do
    Hashtbl.replace bootstrap u (Scheme.register server ~member:u ~cls:Scheme.Long)
  done;
  let msg = Option.get (Scheme.rekey server) in
  Printf.printf "rekey message: %d encrypted keys (epoch %d)\n" (Rekey_msg.size_keys msg)
    msg.epoch;

  (* Members bootstrap purely from the multicast message plus their
     individual key. *)
  let members = Hashtbl.create 9 in
  for u = 1 to 9 do
    let leaf = fst (List.hd (Scheme.member_path server u)) in
    let m = Member.create ~id:u ~leaf_node:leaf ~individual_key:(Hashtbl.find bootstrap u) in
    let used = Member.process m msg in
    Hashtbl.replace members u m;
    Printf.printf "  u%d decrypted %d entries; holds DEK: %b\n" u used
      (Member.group_key m <> None)
  done;
  let dek = Option.get (Scheme.group_key server) in
  Printf.printf "group key (DEK) fingerprint: %s\n" (Key.fingerprint dek);

  section "The logical key tree";
  List.iter (Format.printf "%a" Gkm_keytree.Keytree.pp) (Scheme.trees server);

  section "u4 departs (forward secrecy)";
  let old_dek = dek in
  Scheme.enqueue_departure server 4;
  let msg = Option.get (Scheme.rekey server) in
  Printf.printf "rekey message: %d encrypted keys\n" (Rekey_msg.size_keys msg);
  Hashtbl.iter (fun _ m -> ignore (Member.process m msg)) members;
  let new_dek = Option.get (Scheme.group_key server) in
  Printf.printf "DEK changed: %b (old %s -> new %s)\n"
    (not (Key.equal old_dek new_dek))
    (Key.fingerprint old_dek) (Key.fingerprint new_dek);
  let u4 = Hashtbl.find members 4 in
  let u5 = Hashtbl.find members 5 in
  Printf.printf "u5 holds the new DEK: %b\n"
    (match Member.group_key u5 with Some k -> Key.equal k new_dek | None -> false);
  Printf.printf "evicted u4 holds the new DEK: %b\n"
    (match Member.group_key u4 with Some k -> Key.equal k new_dek | None -> false);

  section "Encrypting group traffic under the DEK";
  let payload = Bytes.of_string "pay-per-view frame 00142: goal replay" in
  let nonce = Bytes.make 16 '\001' in
  let cipher = Gkm_crypto.Aes128.expand (Key.to_bytes new_dek) in
  let ciphertext = Gkm_crypto.Aes128.ctr_transform cipher ~nonce payload in
  Printf.printf "ciphertext: %s...\n" (String.sub (Gkm_crypto.Hex.encode ciphertext) 0 32);
  let u5_dek = Option.get (Member.group_key u5) in
  let u5_cipher = Gkm_crypto.Aes128.expand (Key.to_bytes u5_dek) in
  let decrypted = Gkm_crypto.Aes128.ctr_transform u5_cipher ~nonce ciphertext in
  Printf.printf "u5 decrypts: %S\n" (Bytes.to_string decrypted);

  section "Cost accounting";
  Printf.printf "total encrypted keys so far: %d across %d rekeyings\n"
    (Scheme.cumulative_keys server) (Scheme.interval server)
