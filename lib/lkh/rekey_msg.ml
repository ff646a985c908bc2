module Key = Gkm_crypto.Key
module Bytes_io = Gkm_crypto.Bytes_io
module Keytree = Gkm_keytree.Keytree

type entry = {
  target_node : int;
  target_version : int;
  level : int;
  wrapped_under : int;
  receivers : int;
  ciphertext : bytes;
}

type t = { epoch : int; root_node : int; entries : entry list }

(* Derivation notices reuse the wrap entry shape: the payload is the
   4-byte source-key version instead of a wrapped key, so the wire
   codecs, job fan-out and packetizers carry them unchanged.
   [wrapped_under] names the derivation input — a child node for an
   up-derivation, the target itself for a roll — which is exactly
   what interest resolution needs. Payload lengths keep the three
   entry kinds unambiguous: 4 bytes = notice, 20 bytes = compact wrap
   (derived mode: 4-byte wrapping-key version || one encrypted
   block), [Key.wrapped_size] = 32 bytes = classical wrap (one
   encrypted block || the key's check). *)
let derive_payload_bytes = 4
let compact_wrap_bytes = derive_payload_bytes + Key.size

let is_derive e = Bytes.length e.ciphertext = derive_payload_bytes
let is_roll e = is_derive e && e.wrapped_under = e.target_node
let derive_src_version e = Bytes_io.get_i32 e.ciphertext 0
let is_compact_wrap e = Bytes.length e.ciphertext = compact_wrap_bytes
let compact_src_version e = Bytes_io.get_i32 e.ciphertext 0
let compact_wrapped_key e = Bytes.sub e.ciphertext derive_payload_bytes Key.size

let of_updates ~epoch ~root_node updates =
  let entries =
    List.concat_map
      (fun (u : Keytree.update) ->
        let derives =
          List.map
            (fun (d : Keytree.derive) ->
              let payload = Bytes.create derive_payload_bytes in
              ignore (Bytes_io.put_i32 payload 0 d.src_version);
              {
                target_node = u.node_id;
                target_version = u.version;
                level = u.level;
                wrapped_under = d.src_node;
                receivers = d.src_receivers;
                ciphertext = payload;
              })
            u.derives
        in
        (* one check per refreshed key, shared by all its wraps *)
        let check = lazy (Key.check u.key) in
        let wraps =
          List.map
            (fun (w : Keytree.wrap) ->
              let ciphertext =
                match w.under_version with
                | None ->
                    Key.wrap_checked_with (Lazy.force w.under_cipher) ~check:(Lazy.force check)
                      u.key
                | Some v ->
                    let ct = Bytes.create compact_wrap_bytes in
                    ignore (Bytes_io.put_i32 ct 0 v);
                    Bytes.blit
                      (Key.wrap_block_with (Lazy.force w.under_cipher) u.key)
                      0 ct derive_payload_bytes Key.size;
                    ct
              in
              {
                target_node = u.node_id;
                target_version = u.version;
                level = u.level;
                wrapped_under = w.under_node;
                receivers = w.receivers;
                ciphertext;
              })
            u.wraps
        in
        derives @ wraps)
      updates
  in
  { epoch; root_node; entries }

let size_keys t = List.length t.entries

let entry_header_bytes = 16

let size_bytes t =
  List.fold_left
    (fun acc e -> acc + entry_header_bytes + Bytes.length e.ciphertext)
    0 t.entries

let entry_id e = (e.target_node, e.wrapped_under)

let pp fmt t =
  Format.fprintf fmt "rekey epoch=%d root=%d entries=%d@." t.epoch t.root_node
    (List.length t.entries);
  List.iter
    (fun e ->
      if is_roll e then
        Format.fprintf fmt "  K%d (v%d, level %d) rolled from v%d -> %d receivers@."
          e.target_node e.target_version e.level (derive_src_version e) e.receivers
      else if is_derive e then
        Format.fprintf fmt "  K%d (v%d, level %d) derived from K%d -> %d receivers@."
          e.target_node e.target_version e.level e.wrapped_under e.receivers
      else if is_compact_wrap e then
        Format.fprintf fmt
          "  K%d (v%d, level %d) compact-wrapped under K%d v%d -> %d receivers@." e.target_node
          e.target_version e.level e.wrapped_under (compact_src_version e) e.receivers
      else
        Format.fprintf fmt "  K%d (v%d, level %d) wrapped under K%d -> %d receivers@."
          e.target_node e.target_version e.level e.wrapped_under e.receivers)
    t.entries
