module Prng = Gkm_crypto.Prng
module Loss_model = Gkm_net.Loss_model
module Engine = Gkm_sim.Engine
module Obs = Gkm_obs.Obs
module Metrics = Gkm_obs.Metrics
module Journal = Gkm_obs.Journal

let m_injected = Metrics.Counter.v "fault.injected"

type target = All | Members of int list

type fault =
  | Crash of { interval : int }
  | Burst_loss of { from_t : float; until_t : float; extra : float; target : target }
  | Partition of { from_t : float; until_t : float; target : target }
  | Drop_unicast of { interval : int; member : int }
  | Delay_unicast of { interval : int; member : int; by : int }
  | Corrupt of { interval : int }
  | Desync of { interval : int; member : int }

type plan = fault list

let validate plan =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go = function
    | [] -> Ok ()
    | f :: tl -> (
        match f with
        | Crash { interval } | Corrupt { interval } ->
            if interval < 1 then fail "fault: interval must be >= 1" else go tl
        | Drop_unicast { interval; _ } | Desync { interval; _ } ->
            if interval < 1 then fail "fault: interval must be >= 1" else go tl
        | Delay_unicast { interval; by; _ } ->
            if interval < 1 then fail "fault: interval must be >= 1"
            else if by < 1 then fail "fault: delay must be >= 1 interval"
            else go tl
        | Burst_loss { from_t; until_t; extra; _ } ->
            if from_t < 0.0 || until_t <= from_t then fail "fault: empty loss window"
            else if extra < 0.0 || extra > 1.0 then
              fail "fault: loss rate %g outside [0, 1]" extra
            else go tl
        | Partition { from_t; until_t; _ } ->
            if from_t < 0.0 || until_t <= from_t then fail "fault: empty partition window"
            else go tl)
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Plan syntax                                                         *)

let target_to_string = function
  | All -> "*"
  | Members ms -> String.concat "," (List.map string_of_int ms)

let fault_to_string = function
  | Crash { interval } -> Printf.sprintf "crash@%d" interval
  | Burst_loss { from_t; until_t; extra; target = All } ->
      Printf.sprintf "loss@%g-%g:%g" from_t until_t extra
  | Burst_loss { from_t; until_t; extra; target } ->
      Printf.sprintf "loss@%g-%g:%g:%s" from_t until_t extra (target_to_string target)
  | Partition { from_t; until_t; target } ->
      Printf.sprintf "partition@%g-%g:%s" from_t until_t (target_to_string target)
  | Drop_unicast { interval; member } -> Printf.sprintf "drop@%d:%d" interval member
  | Delay_unicast { interval; member; by } ->
      Printf.sprintf "delay@%d:%d:%d" interval member by
  | Corrupt { interval } -> Printf.sprintf "corrupt@%d" interval
  | Desync { interval; member } -> Printf.sprintf "desync@%d:%d" interval member

let to_string plan = String.concat ";" (List.map fault_to_string plan)

let parse_target s =
  if s = "*" then Ok All
  else
    let parts = String.split_on_char ',' s |> List.map String.trim in
    let ids = List.map int_of_string_opt parts in
    if parts = [] || List.exists Option.is_none ids then
      Error (Printf.sprintf "bad member list %S" s)
    else Ok (Members (List.map Option.get ids))

let parse_window s =
  match String.index_opt s '-' with
  | None -> Error (Printf.sprintf "bad time window %S (expected T0-T1)" s)
  | Some i -> (
      let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some t0, Some t1 -> Ok (t0, t1)
      | _ -> Error (Printf.sprintf "bad time window %S" s))

let parse_fault s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  match String.index_opt s '@' with
  | None -> fail "bad fault %S (expected kind@...)" s
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let fields = String.split_on_char ':' rest in
      let int_field name v =
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> fail "bad %s %S in %S" name v s
      in
      match (kind, fields) with
      | "crash", [ k ] ->
          let* interval = int_field "interval" k in
          Ok (Crash { interval })
      | "corrupt", [ k ] ->
          let* interval = int_field "interval" k in
          Ok (Corrupt { interval })
      | "drop", [ k; m ] ->
          let* interval = int_field "interval" k in
          let* member = int_field "member" m in
          Ok (Drop_unicast { interval; member })
      | "desync", [ k; m ] ->
          let* interval = int_field "interval" k in
          let* member = int_field "member" m in
          Ok (Desync { interval; member })
      | "delay", [ k; m; d ] ->
          let* interval = int_field "interval" k in
          let* member = int_field "member" m in
          let* by = int_field "delay" d in
          Ok (Delay_unicast { interval; member; by })
      | "loss", ([ w; r ] | [ w; r; _ ]) ->
          let* from_t, until_t = parse_window w in
          let* extra =
            match float_of_string_opt r with
            | Some x -> Ok x
            | None -> fail "bad loss rate %S in %S" r s
          in
          let* target =
            match fields with [ _; _; t ] -> parse_target t | _ -> Ok All
          in
          Ok (Burst_loss { from_t; until_t; extra; target })
      | "partition", [ w; t ] ->
          let* from_t, until_t = parse_window w in
          let* target = parse_target t in
          Ok (Partition { from_t; until_t; target })
      | _ ->
          fail
            "bad fault %S (expected crash@K, loss@T0-T1:R[:members], \
             partition@T0-T1:members|*, drop@K:M, delay@K:M:D, corrupt@K, desync@K:M)"
            s)

let of_string s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> (
        let plan = List.rev acc in
        match validate plan with Ok () -> Ok plan | Error e -> Error e)
    | p :: tl -> ( match parse_fault p with Ok f -> go (f :: acc) tl | Error e -> Error e)
  in
  go [] parts

(* ------------------------------------------------------------------ *)
(* Injector                                                            *)

module Injector = struct
  type t = { plan : plan; i_rng : Prng.t; mutable injected : int }

  let create ?(seed = 0) plan =
    (match validate plan with Ok () -> () | Error e -> invalid_arg ("Fault.Injector: " ^ e));
    { plan; i_rng = Prng.create seed; injected = 0 }

  let rng t = t.i_rng
  let injected t = t.injected

  let record t ~time ~kind ?member () =
    t.injected <- t.injected + 1;
    if Obs.enabled () then begin
      Metrics.Counter.incr m_injected;
      let fields =
        ("kind", Journal.Str kind)
        ::
        (match member with None -> [] | Some m -> [ ("member", Journal.Int m) ])
      in
      Journal.record ~time "fault.injected" fields
    end

  let targets member = function All -> true | Members ms -> List.mem member ms

  let in_window ~time ~from_t ~until_t = time >= from_t && time < until_t

  let partitioned t ~time ~member =
    List.exists
      (function
        | Partition { from_t; until_t; target } ->
            in_window ~time ~from_t ~until_t && targets member target
        | _ -> false)
      t.plan

  let channel_faulty t ~time =
    List.exists
      (function
        | Partition { from_t; until_t; _ } | Burst_loss { from_t; until_t; _ } ->
            in_window ~time ~from_t ~until_t
        | _ -> false)
      t.plan

  let loss_rate t ~time ~member base =
    if partitioned t ~time ~member then 1.0
    else
      List.fold_left
        (fun rate f ->
          match f with
          | Burst_loss { from_t; until_t; extra; target }
            when in_window ~time ~from_t ~until_t && targets member target ->
              1.0 -. ((1.0 -. rate) *. (1.0 -. extra))
          | _ -> rate)
        base t.plan

  let loss_model t ~time ~member base =
    let p = Loss_model.mean_loss base in
    let p' = loss_rate t ~time ~member p in
    if p' = p then base else Loss_model.bernoulli (min 1.0 p')

  let crash_at t ~interval =
    List.exists (function Crash { interval = k } -> k = interval | _ -> false) t.plan

  let dropped_unicast t ~interval ~member =
    List.exists
      (function
        | Drop_unicast { interval = k; member = m } -> k = interval && m = member
        | _ -> false)
      t.plan

  let delayed_unicast t ~interval ~member =
    List.find_map
      (function
        | Delay_unicast { interval = k; member = m; by } when k = interval && m = member ->
            Some by
        | _ -> None)
      t.plan

  let corrupt_at t ~interval =
    List.exists (function Corrupt { interval = k } -> k = interval | _ -> false) t.plan

  let desyncs_at t ~interval =
    List.filter_map
      (function
        | Desync { interval = k; member } when k = interval -> Some member | _ -> None)
      t.plan
    |> List.sort_uniq compare

  (* Window boundaries become engine events so activations are
     journalled (and counted) at the sim time they take effect. The
     close event is journal-only: the fault was already counted. *)
  let arm t ~engine =
    let now = Engine.now engine in
    let window ~kind ~from_t ~until_t =
      if from_t >= now then
        Engine.schedule engine ~at:from_t (fun e ->
            record t ~time:(Engine.now e) ~kind ());
      if until_t >= now then
        Engine.schedule engine ~at:until_t (fun e ->
            if Obs.enabled () then
              Journal.record ~time:(Engine.now e) "fault.window.close"
                [ ("kind", Journal.Str kind) ])
    in
    List.iter
      (function
        | Burst_loss { from_t; until_t; _ } -> window ~kind:"loss" ~from_t ~until_t
        | Partition { from_t; until_t; _ } -> window ~kind:"partition" ~from_t ~until_t
        | Crash _ | Drop_unicast _ | Delay_unicast _ | Corrupt _ | Desync _ -> ())
      t.plan
end
