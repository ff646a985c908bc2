module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Keytree = Gkm_keytree.Keytree
module Rekey_msg = Gkm_lkh.Rekey_msg
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics

module type S = sig
  val name : string

  val register :
    member:int -> cls:Scheme.member_class -> loss:float -> Gkm_crypto.Key.t

  val enqueue_departure : int -> unit
  val rekey : unit -> Gkm_lkh.Rekey_msg.t option
  val group_key : unit -> Gkm_crypto.Key.t option
  val trees : unit -> Gkm_keytree.Keytree.t list
  val receiver_groups : unit -> (int * int list) list
  val placements : unit -> (int * int) list
  val is_member : int -> bool
  val size : unit -> int
  val band_sizes : unit -> int array
  val interval : unit -> int
  val last_cost : unit -> int
  val cumulative_keys : unit -> int
  val describe : unit -> (string * string) list
  val member_path : int -> (int * Gkm_crypto.Key.t) list
  val snapshot : unit -> bytes
end

type packed = (module S)

type composed_config = {
  kind : Scheme.kind;
  degree : int;
  s_period : int;
  seed : int;
  thresholds : float list;
}

type spec =
  | Scheme_cfg of Scheme.config
  | Loss_cfg of Loss_tree.config
  | Composed_cfg of composed_config
  | Derived_cfg of spec

let thresholds_string ts = String.concat "," (List.map (Printf.sprintf "%g") ts)

(* [Derived_cfg] is an idempotent modifier: nested wrappings collapse
   to one. *)
let rec base_spec = function Derived_cfg s -> base_spec s | s -> s

let spec_keys_mode = function
  | Derived_cfg _ -> Keytree.Derived
  | Scheme_cfg _ | Loss_cfg _ | Composed_cfg _ -> Keytree.Wrap

let with_keys_mode mode spec =
  match mode with
  | Keytree.Wrap -> base_spec spec
  | Keytree.Derived -> Derived_cfg (base_spec spec)

let keys_mode_name = function
  | Keytree.Wrap -> "wrap"
  | Keytree.Derived -> "derived"

let rec spec_name = function
  | Scheme_cfg c -> Scheme.kind_name c.Scheme.kind
  | Loss_cfg c -> (
      match c.Loss_tree.assignment with
      | Loss_tree.By_loss ts ->
          Printf.sprintf "loss-homogenized(%s)" (thresholds_string ts)
      | Loss_tree.Random k -> Printf.sprintf "random(%d)" k)
  | Composed_cfg c ->
      Printf.sprintf "composed(%s@%s)" (Scheme.kind_name c.kind)
        (thresholds_string c.thresholds)
  | Derived_cfg s -> spec_name (base_spec s) ^ "+derived"

(* ------------------------------------------------------------------ *)
(* Wrappers: a scheme or loss tree already satisfies S up to naming.  *)

let of_scheme sch : packed =
  (module struct
    let name = Scheme.kind_name (Scheme.config sch).Scheme.kind
    let register ~member ~cls ~loss:_ = Scheme.register sch ~member ~cls
    let enqueue_departure m = Scheme.enqueue_departure sch m
    let rekey () = Scheme.rekey sch
    let group_key () = Scheme.group_key sch
    let trees () = Scheme.trees sch
    let receiver_groups () = []
    let placements () = Scheme.placements sch
    let is_member m = Scheme.is_member sch m
    let size () = Scheme.size sch
    let band_sizes () = [| Scheme.s_size sch; Scheme.l_size sch |]
    let interval () = Scheme.interval sch
    let last_cost () = Scheme.last_cost sch
    let cumulative_keys () = Scheme.cumulative_keys sch
    let member_path m = Scheme.member_path sch m
    let snapshot () = Scheme.snapshot sch

    let describe () =
      let cfg = Scheme.config sch in
      [
        ("org", "scheme");
        ("scheme", Scheme.kind_name cfg.Scheme.kind);
        ("keys", keys_mode_name (Scheme.keys_mode sch));
        ("degree", string_of_int cfg.Scheme.degree);
        ("s_period", string_of_int (Scheme.s_period sch));
        ("seed", string_of_int cfg.Scheme.seed);
      ]
  end)

let of_loss_tree lt : packed =
  (module struct
    let name = Printf.sprintf "loss-homogenized(%d bands)" (Loss_tree.n_bands lt)

    let register ~member ~cls:_ ~loss = Loss_tree.register lt ~member ~loss
    let enqueue_departure m = Loss_tree.enqueue_departure lt m
    let rekey () = Loss_tree.rekey lt
    let group_key () = Loss_tree.group_key lt
    let trees () = Loss_tree.trees lt
    let receiver_groups () = []
    let placements () = Loss_tree.placements lt
    let is_member m = Loss_tree.is_member lt m
    let size () = Loss_tree.size lt
    let band_sizes () = Loss_tree.band_sizes lt
    let interval () = Loss_tree.interval lt
    let last_cost () = Loss_tree.last_cost lt
    let cumulative_keys () = Loss_tree.cumulative_keys lt
    let member_path m = Loss_tree.member_path lt m
    let snapshot () = Loss_tree.snapshot lt

    let describe () =
      [
        ("org", "loss-tree");
        ("bands", string_of_int (Loss_tree.n_bands lt));
        ("keys", keys_mode_name (Loss_tree.keys_mode lt));
      ]
  end)

(* ------------------------------------------------------------------ *)
(* Composed: a full two-partition scheme inside each loss band.       *)

let band_dek_id b = -(500_000_000 + b)
let band_stride = 2_000_000_000

(* Shared with Scheme / Loss_tree: the composed layer is one more
   driver of the same counter. Only the composed wraps are added here —
   the per-band tree entries were already counted by each band's
   [Scheme.rekey]. *)
let m_keys_encrypted = Metrics.Counter.v "rekey.keys_encrypted"

type composed = {
  c_cfg : composed_config;
  c_rng : Prng.t; (* composed-DEK stream, independent of the bands' *)
  bands : Scheme.t array;
  band_of : (int, int) Hashtbl.t; (* member (live or pending join) -> band *)
  mutable c_interval : int;
  mutable c_dek : Key.t option;
  mutable c_cumulative : int;
  mutable c_last_cost : int;
}

let check_thresholds ts =
  if ts = [] then invalid_arg "Organization: composed needs at least one threshold";
  let rec sorted = function
    | a :: (b :: _ as tl) -> a < b && sorted tl
    | _ -> true
  in
  if not (sorted ts) then
    invalid_arg "Organization: thresholds must be strictly ascending"

let composed_create ?(keys_mode = Keytree.Wrap) (cfg : composed_config) =
  check_thresholds cfg.thresholds;
  let n_bands = List.length cfg.thresholds + 1 in
  let bands =
    Array.init n_bands (fun b ->
        Scheme.create ~s_base:(b * band_stride)
          ~l_base:((b * band_stride) + 1_000_000_000)
          ~dek_id:(band_dek_id b) ~keys_mode
          {
            Scheme.kind = cfg.kind;
            degree = cfg.degree;
            s_period = cfg.s_period;
            seed = cfg.seed + ((b + 1) * 7919);
          })
  in
  {
    c_cfg = cfg;
    c_rng = Prng.create (cfg.seed + 499);
    bands;
    band_of = Hashtbl.create 256;
    c_interval = 0;
    c_dek = None;
    c_cumulative = 0;
    c_last_cost = 0;
  }

let composed_band_of_loss cfg loss =
  let rec find i = function
    | [] -> i
    | th :: tl -> if loss <= th then i else find (i + 1) tl
  in
  find 0 cfg.thresholds

let composed_live_bands t =
  Array.to_list (Array.mapi (fun b sch -> (b, sch)) t.bands)
  |> List.filter (fun (_, sch) -> Scheme.size sch > 0)

let composed_register t ~member ~cls ~loss =
  if Hashtbl.mem t.band_of member then
    invalid_arg
      (Printf.sprintf "Organization.register: %d is a member or pending" member);
  let band = composed_band_of_loss t.c_cfg loss in
  let key = Scheme.register t.bands.(band) ~member ~cls in
  Hashtbl.replace t.band_of member band;
  key

let composed_enqueue_departure t m =
  match Hashtbl.find_opt t.band_of m with
  | None ->
      invalid_arg
        (Printf.sprintf "Organization.enqueue_departure: %d is not a member" m)
  | Some b ->
      Scheme.enqueue_departure t.bands.(b) m;
      (* A departure of a pending joiner cancels the join outright. *)
      if not (Scheme.is_member t.bands.(b) m) then Hashtbl.remove t.band_of m

let composed_rekey t =
  t.c_interval <- t.c_interval + 1;
  let msgs = Array.map Scheme.rekey t.bands in
  let stale =
    Hashtbl.fold
      (fun m b acc -> if Scheme.is_member t.bands.(b) m then acc else m :: acc)
      t.band_of []
  in
  List.iter (Hashtbl.remove t.band_of) stale;
  if Array.for_all Option.is_none msgs then begin
    t.c_last_cost <- 0;
    None
  end
  else begin
    let finish ~root_node entries =
      let cost = List.length entries in
      t.c_cumulative <- t.c_cumulative + cost;
      t.c_last_cost <- cost;
      Some { Rekey_msg.epoch = t.c_interval; root_node; entries }
    in
    match composed_live_bands t with
    | [] ->
        t.c_dek <- None;
        finish ~root_node:Scheme.dek_node []
    | [ (b, sch) ] ->
        (* Degenerate: one live band — its own message IS the group
           message, unshifted, no composed DEK above it. *)
        t.c_dek <- None;
        let entries =
          match msgs.(b) with Some m -> m.Rekey_msg.entries | None -> []
        in
        let root =
          match Scheme.root_node sch with
          | Some r -> r
          | None -> Scheme.dek_node
        in
        finish ~root_node:root entries
    | live ->
        let tree_entries =
          Array.to_list msgs
          |> List.concat_map (function
               | None -> []
               | Some (m : Rekey_msg.t) ->
                   List.map
                     (fun (e : Rekey_msg.entry) ->
                       { e with level = e.level + 1 })
                     m.entries)
        in
        let dek = Key.fresh t.c_rng in
        t.c_dek <- Some dek;
        let wraps =
          List.filter_map
            (fun (_, sch) ->
              match (Scheme.root_node sch, Scheme.group_key sch) with
              | Some root, Some gk ->
                  Some
                    {
                      Rekey_msg.target_node = Scheme.dek_node;
                      target_version = t.c_interval;
                      level = 0;
                      wrapped_under = root;
                      receivers = Scheme.size sch;
                      ciphertext = Key.wrap ~kek:gk dek;
                    }
              | _ -> None)
            live
        in
        if Obs.enabled () then
          Metrics.Counter.add m_keys_encrypted (List.length wraps);
        finish ~root_node:Scheme.dek_node (tree_entries @ wraps)
  end

let composed_group_key t =
  match t.c_dek with
  | Some k -> Some k
  | None -> (
      match composed_live_bands t with
      | [ (_, sch) ] -> Scheme.group_key sch
      | _ -> None)

let composed_receiver_groups t =
  let members = Array.make (Array.length t.bands) [] in
  Hashtbl.iter
    (fun m b -> if Scheme.is_member t.bands.(b) m then members.(b) <- m :: members.(b))
    t.band_of;
  Array.to_list
    (Array.mapi (fun b ms -> (band_dek_id b, List.sort compare ms)) members)
  |> List.filter (fun (_, ms) -> ms <> [])

let composed_member_path t m =
  match Hashtbl.find_opt t.band_of m with
  | None -> raise Not_found
  | Some b -> (
      let path = Scheme.member_path t.bands.(b) m in
      match t.c_dek with
      | Some dek -> path @ [ (Scheme.dek_node, dek) ]
      | None -> path)

let composed_magic = "GKCO"
let composed_version = 1

let comp_kind_tag = function
  | Scheme.One_keytree -> 0
  | Scheme.Qt -> 1
  | Scheme.Tt -> 2
  | Scheme.Pt -> 3

let comp_kind_of_tag = function
  | 0 -> Scheme.One_keytree
  | 1 -> Scheme.Qt
  | 2 -> Scheme.Tt
  | 3 -> Scheme.Pt
  | n -> Gkm_crypto.Codec.corrupt "bad composed kind tag %d" n

let composed_snapshot t =
  let open Gkm_crypto.Codec in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf composed_magic;
  add_u8 buf composed_version;
  add_u8 buf (comp_kind_tag t.c_cfg.kind);
  add_i32 buf t.c_cfg.degree;
  add_i32 buf t.c_cfg.s_period;
  add_i64 buf (Int64.of_int t.c_cfg.seed);
  add_list buf add_f64 t.c_cfg.thresholds;
  add_i64 buf (Prng.save t.c_rng);
  add_i32 buf t.c_interval;
  add_opt buf add_key t.c_dek;
  add_i32 buf t.c_cumulative;
  add_i32 buf t.c_last_cost;
  Array.iter (fun sch -> add_var32 buf (Scheme.snapshot sch)) t.bands;
  add_list buf
    (fun buf (m, b) ->
      add_i32 buf m;
      add_i32 buf b)
    (Hashtbl.fold (fun m b acc -> (m, b) :: acc) t.band_of [] |> List.sort compare);
  Buffer.to_bytes buf

let composed_restore blob =
  let open Gkm_crypto.Codec in
  parse blob @@ fun r ->
  magic r composed_magic;
  let version = u8 r in
  if version <> composed_version then
    corrupt "unsupported composed snapshot version %d" version;
  let kind = comp_kind_of_tag (u8 r) in
  let degree = i32 r in
  let s_period = i32 r in
  let seed = Int64.to_int (i64 r) in
  let thresholds = list r ~min_item_size:8 f64 in
  let c_rng = Prng.restore (i64 r) in
  let c_interval = i32 r in
  let c_dek = opt r key in
  let c_cumulative = i32 r in
  let c_last_cost = i32 r in
  let n_bands = List.length thresholds + 1 in
  let read_band r =
    match Scheme.restore (var32 r) with
    | Ok sch -> sch
    | Error e -> corrupt "bad band blob: %s" e
  in
  let bands = Array.of_list (items r ~min_item_size:4 n_bands read_band) in
  let band_of = Hashtbl.create 256 in
  list r ~min_item_size:8 (fun r ->
      let m = i32 r in
      let b = i32 r in
      (m, b))
  |> List.iter (fun (m, b) -> Hashtbl.replace band_of m b);
  {
    c_cfg = { kind; degree; s_period; seed; thresholds };
    c_rng;
    bands;
    band_of;
    c_interval;
    c_dek;
    c_cumulative;
    c_last_cost;
  }

let of_composed t : packed =
  (module struct
    let name = spec_name (Composed_cfg t.c_cfg)
    let register ~member ~cls ~loss = composed_register t ~member ~cls ~loss
    let enqueue_departure m = composed_enqueue_departure t m
    let rekey () = composed_rekey t
    let group_key () = composed_group_key t

    let trees () =
      Array.to_list t.bands |> List.concat_map (fun sch -> Scheme.trees sch)

    let receiver_groups () = composed_receiver_groups t

    let placements () =
      Array.to_list t.bands |> List.concat_map (fun sch -> Scheme.placements sch)

    let is_member m =
      match Hashtbl.find_opt t.band_of m with
      | Some b -> Scheme.is_member t.bands.(b) m
      | None -> false

    let size () = Array.fold_left (fun acc sch -> acc + Scheme.size sch) 0 t.bands
    let band_sizes () = Array.map Scheme.size t.bands
    let interval () = t.c_interval
    let last_cost () = t.c_last_cost
    let cumulative_keys () = t.c_cumulative
    let member_path m = composed_member_path t m
    let snapshot () = composed_snapshot t

    let describe () =
      [
        ("org", "composed");
        ("scheme", Scheme.kind_name t.c_cfg.kind);
        ("bands", string_of_int (Array.length t.bands));
        ("thresholds", thresholds_string t.c_cfg.thresholds);
        ("degree", string_of_int t.c_cfg.degree);
        ("s_period", string_of_int t.c_cfg.s_period);
        ("seed", string_of_int t.c_cfg.seed);
      ]
  end)

let create spec =
  let keys_mode = spec_keys_mode spec in
  match base_spec spec with
  | Scheme_cfg cfg -> of_scheme (Scheme.create ~keys_mode cfg)
  | Loss_cfg cfg -> of_loss_tree (Loss_tree.create ~keys_mode cfg)
  | Composed_cfg cfg -> of_composed (composed_create ~keys_mode cfg)
  | Derived_cfg _ -> assert false (* base_spec never returns one *)

(* The spec only selects the decoder family; every configuration
   detail — the keys mode included — is carried by the blob itself. *)
let restore spec blob =
  match base_spec spec with
  | Scheme_cfg _ -> Result.map of_scheme (Scheme.restore blob)
  | Loss_cfg _ -> Result.map of_loss_tree (Loss_tree.restore blob)
  | Composed_cfg _ -> Result.map of_composed (composed_restore blob)
  | Derived_cfg _ -> assert false (* base_spec never returns one *)

(* ------------------------------------------------------------------ *)
(* CLI selector parsing.                                              *)

let kind_of_string = function
  | "one" | "one-keytree" -> Some Scheme.One_keytree
  | "qt" -> Some Scheme.Qt
  | "tt" -> Some Scheme.Tt
  | "pt" -> Some Scheme.Pt
  | _ -> None

let parse_thresholds s =
  match
    String.split_on_char ',' s
    |> List.map (fun x -> float_of_string_opt (String.trim x))
  with
  | [] -> Error "no thresholds"
  | parts ->
      if List.exists Option.is_none parts then
        Error (Printf.sprintf "bad threshold list %S" s)
      else Ok (List.map Option.get parts)

let after_prefix ~prefix s =
  if String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let spec_of_string ?(degree = 4) ?(s_period = 10) ?(seed = 0) s =
  let s, derived =
    if Filename.check_suffix s "+derived" then (Filename.chop_suffix s "+derived", true)
    else (s, false)
  in
  let wrap_mode r = if derived then Result.map (fun sp -> Derived_cfg sp) r else r in
  wrap_mode
  @@
  let scheme kind = Ok (Scheme_cfg { Scheme.kind; degree; s_period; seed }) in
  match kind_of_string s with
  | Some kind -> scheme kind
  | None -> (
      match after_prefix ~prefix:"loss:" s with
      | Some ts -> (
          match parse_thresholds ts with
          | Ok thresholds ->
              Ok
                (Loss_cfg
                   { Loss_tree.degree; seed; assignment = Loss_tree.By_loss thresholds })
          | Error e -> Error e)
      | None -> (
          match after_prefix ~prefix:"random:" s with
          | Some k -> (
              match int_of_string_opt k with
              | Some k when k >= 1 ->
                  Ok (Loss_cfg { Loss_tree.degree; seed; assignment = Loss_tree.Random k })
              | _ -> Error (Printf.sprintf "bad tree count %S" k))
          | None ->
              if s = "composed" then
                Ok
                  (Composed_cfg
                     { kind = Scheme.Tt; degree; s_period; seed; thresholds = [ 0.05 ] })
              else (
                match after_prefix ~prefix:"composed:" s with
                | Some rest -> (
                    let kind_s, ts_s =
                      match String.index_opt rest '@' with
                      | Some i ->
                          ( String.sub rest 0 i,
                            Some
                              (String.sub rest (i + 1) (String.length rest - i - 1)) )
                      | None -> (rest, None)
                    in
                    match kind_of_string kind_s with
                    | None -> Error (Printf.sprintf "unknown scheme %S" kind_s)
                    | Some kind -> (
                        match ts_s with
                        | None ->
                            Ok
                              (Composed_cfg
                                 { kind; degree; s_period; seed; thresholds = [ 0.05 ] })
                        | Some ts -> (
                            match parse_thresholds ts with
                            | Ok thresholds ->
                                Ok (Composed_cfg { kind; degree; s_period; seed; thresholds })
                            | Error e -> Error e)))
                | None ->
                    Error
                      (Printf.sprintf
                         "unknown organization %S (expected one|qt|tt|pt, loss:<t,..>, \
                          random:<k>, composed[:<kind>[@t,..]], each optionally \
                          suffixed +derived)"
                         s))))
