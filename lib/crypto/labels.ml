(* Every derivation label and salt used anywhere in the tree lives
   here, in one prefix-free set. [label_info] encodings append
   big-endian i64 fields directly after the label, so two distinct
   labels can only produce colliding [info] bytes if one label is a
   prefix of the other — prefix-freedom of this registry is exactly
   the no-cross-context-collision property, checked by [check] (run
   once at module initialisation and again by the crypto test
   suite). *)

let registered : (string * string) list ref = ref []

let v name label =
  registered := (name, label) :: !registered;
  label

(* -- KDF expand labels (info prefixes) -- *)

let traffic = v "record-traffic" "traffic"
(* Per-epoch record traffic keys: HKDF(record_salt, DEK, "traffic"). *)

let resume = v "ticket-resume" "rs"
(* Resumption keys: HKDF(resume_salt, individual, "rs" || epoch). *)

(* -- PRF (raw HMAC) labels -- *)

let resync = v "resync-auth" "gkm-resync-v1"
(* RESYNC request authentication: HMAC(individual, label || i32 member
   || i32 epoch). Fields are i32 (wire-pinned), predating the i64
   label_info convention. *)

(* -- HKDF salts (extract stage; distinct namespace from info labels,
   registered here anyway so the whole string set stays collision
   free) -- *)

let record_salt = v "record-salt" "gkm-record-v2"
let resume_salt = v "resume-salt" "gkm-resume-v2"

(* -- Hash-prefix labels (SHA-256 domain separation) -- *)

let oft_blind = v "oft-blind" "oft-blind"
let oft_mix = v "oft-mix" "oft-node"

let key_check = v "key-check" "gkm-key-check1"
(* Classical wraps carry the check SHA-256(label || k)[0:16]; a
   receiver accepts the key it decrypts from the wrap's single block
   only if the key's check matches. *)

let all () = List.rev !registered

let check () =
  let labels = List.map snd (all ()) in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j && String.length a <= String.length b && String.sub b 0 (String.length a) = a
          then
            invalid_arg
              (Printf.sprintf "Labels.check: %S is a prefix of %S" a b))
        labels)
    labels

let () = check ()
