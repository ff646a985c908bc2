module Key = Gkm_crypto.Key
module Prng = Gkm_crypto.Prng
module Rekey_msg = Gkm_lkh.Rekey_msg
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics

module type S = sig
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
  val member_path : int -> (int * Gkm_crypto.Key.t) list
  val snapshot : unit -> bytes
end

type packed = (module S)

type assignment = By_loss of float list | Random of int

type composed_config = {
  kind : Scheme.kind;
  degree : int;
  s_period : int;
  seed : int;
  assignment : assignment;
}

type spec =
  | Scheme_cfg of Scheme.config
  | Composed_cfg of composed_config

let thresholds_string ts = String.concat "," (List.map (Printf.sprintf "%g") ts)

let spec_name = function
  | Scheme_cfg c -> Scheme.kind_name c.Scheme.kind
  | Composed_cfg { kind = Scheme.One_keytree; assignment = By_loss ts; _ } ->
      Printf.sprintf "loss-homogenized(%s)" (thresholds_string ts)
  | Composed_cfg { kind = Scheme.One_keytree; assignment = Random k; _ } ->
      Printf.sprintf "random(%d)" k
  | Composed_cfg { kind; assignment = By_loss ts; _ } ->
      Printf.sprintf "composed(%s@%s)" (Scheme.kind_name kind) (thresholds_string ts)
  | Composed_cfg { kind; assignment = Random k; _ } ->
      Printf.sprintf "composed(%s@random:%d)" (Scheme.kind_name kind) k

(* Every packed organization counts one [rekey.count] per group rekey
   here, not per band: a banded organization rekeys several schemes
   per interval. *)
let m_rekeys = Metrics.Counter.v "rekey.count"

let counted msg =
  if Option.is_some msg && Obs.enabled () then Metrics.Counter.incr m_rekeys;
  msg

(* ------------------------------------------------------------------ *)
(* A bare two-partition scheme.                                       *)

let of_scheme sch : packed =
  (module struct
    let register ~member ~cls ~loss:_ = Scheme.register sch ~member ~cls
    let enqueue_departure m = Scheme.enqueue_departure sch m
    let rekey () = counted (Scheme.rekey sch)
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
  end)

(* ------------------------------------------------------------------ *)
(* Composed: one scheme per band under a composed DEK.               *)

let band_dek_id b = -(500_000_000 + b)
let band_stride = 2_000_000_000

(* Shared with Scheme: the composed layer is one more driver of the
   same counter. Only the composed wraps are added here — the per-band
   tree entries were already counted by each band's [Scheme.rekey]. *)
let m_keys_encrypted = Metrics.Counter.v "rekey.keys_encrypted"

type composed = {
  c_cfg : composed_config;
  c_rng : Prng.t; (* composed-DEK stream, independent of the bands' *)
  bands : Scheme.t array;
  band_of : (int, int) Hashtbl.t; (* member (live or pending join) -> band *)
  band_gauges : Metrics.Gauge.t array Lazy.t; (* forced only when obs is on *)
  mutable c_departing : int list; (* live members with a departure pending *)
  mutable c_next_band : int; (* [Random] round-robin cursor *)
  mutable c_interval : int;
  mutable c_dek : Key.t option;
  mutable c_cumulative : int;
  mutable c_last_cost : int;
}

let n_bands = function
  | By_loss ts ->
      if ts = [] then invalid_arg "Organization: loss bands need at least one threshold";
      let rec sorted = function
        | a :: (b :: _ as tl) -> a < b && sorted tl
        | _ -> true
      in
      if not (sorted ts) then
        invalid_arg "Organization: thresholds must be strictly ascending";
      List.length ts + 1
  | Random k ->
      if k < 1 then invalid_arg "Organization: random placement needs at least one band";
      k

let band_gauges n =
  lazy (Array.init n (fun b -> Metrics.Gauge.v (Printf.sprintf "rekey.band_size.%d" b)))

let composed_create (cfg : composed_config) =
  let n = n_bands cfg.assignment in
  let bands =
    Array.init n (fun b ->
        Scheme.create ~s_base:(b * band_stride)
          ~l_base:((b * band_stride) + 1_000_000_000)
          ~dek_id:(band_dek_id b)
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
    band_gauges = band_gauges n;
    c_departing = [];
    c_next_band = 0;
    c_interval = 0;
    c_dek = None;
    c_cumulative = 0;
    c_last_cost = 0;
  }

(* A member with loss [p] joins the first band whose threshold is
   [>= p], else the last band. A [Random] placement advances its
   cursor at registration, so a join cancelled later still used its
   turn. *)
let composed_place t ~loss =
  match t.c_cfg.assignment with
  | By_loss ts ->
      let rec find i = function
        | [] -> i
        | th :: tl -> if loss <= th then i else find (i + 1) tl
      in
      find 0 ts
  | Random k ->
      let b = t.c_next_band in
      t.c_next_band <- (b + 1) mod k;
      b

let composed_live_bands t =
  Array.to_list (Array.mapi (fun b sch -> (b, sch)) t.bands)
  |> List.filter (fun (_, sch) -> Scheme.size sch > 0)

let composed_register t ~member ~cls ~loss =
  if Hashtbl.mem t.band_of member then
    invalid_arg
      (Printf.sprintf "Organization.register: %d is a member or pending" member);
  let band = composed_place t ~loss in
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
      if Scheme.is_member t.bands.(b) m then t.c_departing <- m :: t.c_departing
      else Hashtbl.remove t.band_of m

let observe_bands t =
  if Obs.enabled () then begin
    let gauges = Lazy.force t.band_gauges in
    Array.iteri
      (fun b sch -> Metrics.Gauge.set gauges.(b) (float_of_int (Scheme.size sch)))
      t.bands
  end

let composed_rekey t =
  t.c_interval <- t.c_interval + 1;
  let msgs = Array.map Scheme.rekey t.bands in
  List.iter (Hashtbl.remove t.band_of) t.c_departing;
  t.c_departing <- [];
  if Array.for_all Option.is_none msgs then begin
    t.c_last_cost <- 0;
    None
  end
  else begin
    let finish ~root_node entries =
      let cost = List.length entries in
      t.c_cumulative <- t.c_cumulative + cost;
      t.c_last_cost <- cost;
      observe_bands t;
      counted (Some { Rekey_msg.epoch = t.c_interval; root_node; entries })
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
        let check = Key.check dek in
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
                      ciphertext = Key.wrap_checked_with (Key.cipher gk) ~check dek;
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

(* Snapshots live only inside one session run, so a blob of any other
   version is rejected rather than read. *)
let composed_version = 2

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
  (match t.c_cfg.assignment with
  | By_loss ts ->
      add_u8 buf 0;
      add_list buf add_f64 ts
  | Random k ->
      add_u8 buf 1;
      add_i32 buf k);
  add_i32 buf t.c_next_band;
  add_list buf add_i32 t.c_departing;
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
  let assignment =
    match u8 r with
    | 0 -> By_loss (list r ~min_item_size:8 f64)
    | 1 -> Random (i32 r)
    | n -> corrupt "bad assignment tag %d" n
  in
  let n = n_bands assignment in
  let c_next_band = i32 r in
  if c_next_band < 0 || c_next_band >= n then corrupt "bad band cursor %d" c_next_band;
  let c_departing = list r ~min_item_size:4 i32 in
  let c_rng = Prng.restore (i64 r) in
  let c_interval = i32 r in
  let c_dek = opt r key in
  let c_cumulative = i32 r in
  let c_last_cost = i32 r in
  let read_band r =
    match Scheme.restore (var32 r) with
    | Ok sch -> sch
    | Error e -> corrupt "bad band blob: %s" e
  in
  let bands = Array.of_list (items r ~min_item_size:4 n read_band) in
  let band_of = Hashtbl.create 256 in
  list r ~min_item_size:8 (fun r ->
      let m = i32 r in
      let b = i32 r in
      if b < 0 || b >= n then corrupt "bad band %d" b;
      (m, b))
  |> List.iter (fun (m, b) -> Hashtbl.replace band_of m b);
  {
    c_cfg = { kind; degree; s_period; seed; assignment };
    c_rng;
    bands;
    band_of;
    band_gauges = band_gauges n;
    c_departing;
    c_next_band;
    c_interval;
    c_dek;
    c_cumulative;
    c_last_cost;
  }

let of_composed t : packed =
  (module struct
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
  end)

let create = function
  | Scheme_cfg cfg -> of_scheme (Scheme.create cfg)
  | Composed_cfg cfg -> of_composed (composed_create cfg)

(* The spec only selects the decoder family; every configuration
   detail is carried by the blob itself. *)
let restore spec blob =
  match spec with
  | Scheme_cfg _ -> Result.map of_scheme (Scheme.restore blob)
  | Composed_cfg _ -> Result.map of_composed (composed_restore blob)

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
  let bands kind assignment =
    Ok (Composed_cfg { kind; degree; s_period; seed; assignment })
  in
  let by_loss kind ts = Result.bind (parse_thresholds ts) (fun ts -> bands kind (By_loss ts)) in
  match kind_of_string s with
  | Some kind -> Ok (Scheme_cfg { Scheme.kind; degree; s_period; seed })
  | None -> (
      match
        ( after_prefix ~prefix:"loss:" s,
          after_prefix ~prefix:"random:" s,
          after_prefix ~prefix:"composed:" s )
      with
      | Some ts, _, _ -> by_loss Scheme.One_keytree ts
      | _, Some k, _ -> (
          match int_of_string_opt k with
          | Some k when k >= 1 -> bands Scheme.One_keytree (Random k)
          | _ -> Error (Printf.sprintf "bad tree count %S" k))
      | _, _, Some rest -> (
          let kind_s, ts =
            match String.index_opt rest '@' with
            | Some i -> (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
            | None -> (rest, "0.05")
          in
          match kind_of_string kind_s with
          | None -> Error (Printf.sprintf "unknown scheme %S" kind_s)
          | Some kind -> by_loss kind ts)
      | None, None, None ->
          if s = "composed" then bands Scheme.Tt (By_loss [ 0.05 ])
          else
            Error
              (Printf.sprintf
                 "unknown organization %S (expected one|qt|tt|pt, loss:<t,..> (one-keytree \
                  loss bands), random:<k> (k round-robin one-keytree bands), \
                  composed[:<kind>[@t,..]])"
                 s))
