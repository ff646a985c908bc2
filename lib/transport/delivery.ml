type outcome = {
  rounds : int;
  packets : int;
  keys : int;
  bandwidth_keys : int;
  nacks : int;
  undelivered : int;
}

module State = struct
  type t = {
    job : Job.t;
    need : (int, unit) Hashtbl.t array; (* per receiver: entries still needed *)
    remaining : int array; (* per entry: receivers still needing it *)
    mutable total : int;
    mutable active : int; (* receivers with a non-empty need set *)
    (* Loss-class bookkeeping, present when [create] was given
       [~loss_of]. Receivers sharing a loss rate are interchangeable in
       the paper's formula (14), so each entry keeps one counter per
       distinct non-zero rate, decremented on receipt — the expected
       replication count then costs O(classes), not O(receivers), per
       round. *)
    loss : float array; (* per receiver; [||] without a loss model *)
    class_ps : float array array; (* per entry: distinct non-zero rates, ascending *)
    class_counts : int array array; (* per entry: live receivers per rate *)
  }

  let create ?loss_of job =
    let n_recv = Job.n_receivers job in
    let need = Array.init n_recv (fun _ -> Hashtbl.create 8) in
    let remaining = Array.make (Job.n_entries job) 0 in
    let total = ref 0 in
    for r = 0 to n_recv - 1 do
      List.iter
        (fun e ->
          if not (Hashtbl.mem need.(r) e) then begin
            Hashtbl.add need.(r) e ();
            remaining.(e) <- remaining.(e) + 1;
            incr total
          end)
        (Job.interest job r)
    done;
    let active =
      Array.fold_left (fun acc h -> if Hashtbl.length h > 0 then acc + 1 else acc) 0 need
    in
    let loss, class_ps, class_counts =
      match loss_of with
      | None -> ([||], [||], [||])
      | Some f ->
          let loss = Array.init n_recv f in
          let n_ent = Job.n_entries job in
          let rates = Array.make n_ent [] in
          for r = 0 to n_recv - 1 do
            let p = loss.(r) in
            if p > 0.0 then
              Hashtbl.iter
                (fun e () -> if not (List.mem p rates.(e)) then rates.(e) <- p :: rates.(e))
                need.(r)
          done;
          let class_ps =
            Array.map
              (fun ps ->
                let a = Array.of_list ps in
                Array.sort compare a;
                a)
              rates
          in
          let class_counts = Array.map (fun ps -> Array.make (Array.length ps) 0) class_ps in
          for r = 0 to n_recv - 1 do
            let p = loss.(r) in
            if p > 0.0 then
              Hashtbl.iter
                (fun e () ->
                  let ps = class_ps.(e) in
                  let i = ref 0 in
                  while ps.(!i) <> p do
                    incr i
                  done;
                  class_counts.(e).(!i) <- class_counts.(e).(!i) + 1)
                need.(r)
          done;
          (loss, class_ps, class_counts)
    in
    { job; need; remaining; total = !total; active; loss; class_ps; class_counts }

  let needs t ~r ~e = Hashtbl.mem t.need.(r) e

  let receive t ~r ~e =
    if Hashtbl.mem t.need.(r) e then begin
      Hashtbl.remove t.need.(r) e;
      t.remaining.(e) <- t.remaining.(e) - 1;
      t.total <- t.total - 1;
      if Hashtbl.length t.need.(r) = 0 then t.active <- t.active - 1;
      if Array.length t.loss > 0 then begin
        let p = t.loss.(r) in
        if p > 0.0 then begin
          let ps = t.class_ps.(e) in
          let i = ref 0 in
          while ps.(!i) <> p do
            incr i
          done;
          t.class_counts.(e).(!i) <- t.class_counts.(e).(!i) - 1
        end
      end
    end

  let remaining t ~e = t.remaining.(e)

  let pending_entries t =
    let acc = ref [] in
    for e = Array.length t.remaining - 1 downto 0 do
      if t.remaining.(e) > 0 then acc := e :: !acc
    done;
    !acc

  let all_done t = t.total = 0

  let undelivered_receivers t = t.active

  let expected_replications ?(bound = Float.infinity) t ~e =
    if Array.length t.loss = 0 then
      invalid_arg "Delivery.State.expected_replications: created without ~loss_of";
    if t.remaining.(e) = 0 then 0.0
    else begin
      let ps = t.class_ps.(e) and counts = t.class_counts.(e) in
      let any = ref false in
      Array.iter (fun c -> if c > 0 then any := true) counts;
      if not !any then 1.0
      else begin
        let total = ref 1.0 in
        let m = ref 2 and go = ref true in
        while !go do
          let log_prod = ref 0.0 in
          Array.iteri
            (fun i c ->
              if c > 0 then
                log_prod :=
                  !log_prod
                  +. (float_of_int c *. log1p (-.(ps.(i) ** float_of_int (!m - 1)))))
            counts;
          let term = -.expm1 !log_prod in
          total := !total +. term;
          if term < 1e-9 || !m > 100_000 || !total >= bound then go := false;
          incr m
        done;
        !total
      end
    end
end

let pack ~capacity copies =
  if capacity < 1 then invalid_arg "Delivery.pack: capacity must be >= 1";
  let packets = ref [] and current = ref [] and fill = ref 0 in
  let flush () =
    if !current <> [] then begin
      packets := List.rev !current :: !packets;
      current := [];
      fill := 0
    end
  in
  List.iter
    (fun (e, count) ->
      if count < 0 then invalid_arg "Delivery.pack: negative copy count";
      for _ = 1 to count do
        current := e :: !current;
        incr fill;
        if !fill = capacity then flush ()
      done)
    copies;
  flush ();
  List.rev !packets

let expected_replications_of ~loss_of ~receivers =
  match receivers with
  | [] -> 0.0
  | _ ->
      (* Group by loss rate; receivers with p = 0 never miss. *)
      let hist = Hashtbl.create 8 in
      List.iter
        (fun r ->
          let p = loss_of r in
          if p > 0.0 then
            Hashtbl.replace hist p (1 + Option.value ~default:0 (Hashtbl.find_opt hist p)))
        receivers;
      if Hashtbl.length hist = 0 then 1.0
      else begin
        let classes = Hashtbl.fold (fun p c acc -> (float_of_int c, p) :: acc) hist [] in
        let total = ref 1.0 in
        let m = ref 2 and go = ref true in
        while !go do
          let log_prod =
            List.fold_left
              (fun acc (count, p) -> acc +. (count *. log1p (-.(p ** float_of_int (!m - 1)))))
              0.0 classes
          in
          let term = -.expm1 log_prod in
          total := !total +. term;
          if term < 1e-9 || !m > 100_000 then go := false;
          incr m
        done;
        !total
      end

module Private = struct
  let expected_replications_of = expected_replications_of
end
