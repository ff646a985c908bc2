let n_buckets = 64
let min_exp = -32

(* Domain safety: counters and gauges are atomics; each histogram
   carries its own mutex (observation is too much state for a CAS);
   each registry guards its name table with a mutex. Uncontended
   Mutex.lock/unlock is tens of nanoseconds — recording stays O(1)
   and cheap enough for hot paths, and the bit-identical-when-disabled
   guarantee is untouched because none of this runs when call sites
   are behind [Obs.enabled]. *)

type hist = {
  h_mu : Mutex.t;
  buckets : int array; (* log2 buckets, [n_buckets] wide *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float; (* +inf when empty *)
  mutable h_max : float; (* -inf when empty *)
}

type metric = Counter of int Atomic.t | Gauge of float Atomic.t | Histogram of hist
type registry = { mu : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let fresh_hist () =
  {
    h_mu = Mutex.create ();
    buckets = Array.make n_buckets 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let reset r =
  Mutex.protect r.mu (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g Float.nan
          | Histogram h ->
              Mutex.protect h.h_mu (fun () ->
                  Array.fill h.buckets 0 n_buckets 0;
                  h.h_count <- 0;
                  h.h_sum <- 0.0;
                  h.h_min <- Float.infinity;
                  h.h_max <- Float.neg_infinity))
        r.tbl)

let reset_all () = reset default

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_or_create ?(registry = default) name ~kind ~make ~extract =
  Mutex.protect registry.mu (fun () ->
      match Hashtbl.find_opt registry.tbl name with
      | Some m -> (
          match extract m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s is registered as a %s, not a %s" name
                   (kind_name m) kind))
      | None ->
          let x, m = make () in
          Hashtbl.add registry.tbl name m;
          x)

module Counter = struct
  type t = int Atomic.t

  let v ?registry name =
    find_or_create ?registry name ~kind:"counter"
      ~make:(fun () ->
        let c = Atomic.make 0 in
        (c, Counter c))
      ~extract:(function Counter c -> Some c | _ -> None)

  let incr t = Atomic.incr t
  let add t n = ignore (Atomic.fetch_and_add t n)
end

module Gauge = struct
  type t = float Atomic.t

  let v ?registry name =
    find_or_create ?registry name ~kind:"gauge"
      ~make:(fun () ->
        let g = Atomic.make Float.nan in
        (g, Gauge g))
      ~extract:(function Gauge g -> Some g | _ -> None)

  let set t x = Atomic.set t x
end

module Histogram = struct
  type t = hist

  let index_of v =
    (* NaN compares false, landing it in bucket 0 with the underflow. *)
    if not (v > ldexp 1.0 min_exp) then 0
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with 0.5 <= m < 1; an exact power of two sits on
         its own bucket boundary (inclusive upper bound). *)
      let e = if m = 0.5 then e - 1 else e in
      let i = e - min_exp in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  let upper_bound i =
    if i < 0 || i >= n_buckets then invalid_arg "Metrics.Histogram.upper_bound: out of range"
    else if i = n_buckets - 1 then Float.infinity
    else ldexp 1.0 (min_exp + i)

  let v ?registry name =
    find_or_create ?registry name ~kind:"histogram"
      ~make:(fun () ->
        let h = fresh_hist () in
        (h, Histogram h))
      ~extract:(function Histogram h -> Some h | _ -> None)

  let observe t x =
    Mutex.protect t.h_mu (fun () ->
        t.buckets.(index_of x) <- t.buckets.(index_of x) + 1;
        t.h_count <- t.h_count + 1;
        t.h_sum <- t.h_sum +. x;
        if x < t.h_min then t.h_min <- x;
        if x > t.h_max then t.h_max <- x)

  let count t = Mutex.protect t.h_mu (fun () -> t.h_count)
  let sum t = Mutex.protect t.h_mu (fun () -> t.h_sum)

  let min_value t =
    Mutex.protect t.h_mu (fun () -> if t.h_count = 0 then Float.nan else t.h_min)

  let max_value t =
    Mutex.protect t.h_mu (fun () -> if t.h_count = 0 then Float.nan else t.h_max)

  let mean t =
    Mutex.protect t.h_mu (fun () ->
        if t.h_count = 0 then Float.nan else t.h_sum /. float_of_int t.h_count)

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Metrics.Histogram.quantile: q outside [0, 1]";
    Mutex.protect t.h_mu (fun () ->
        if t.h_count = 0 then Float.nan
        else begin
          let target = q *. float_of_int t.h_count in
          let cum = ref 0 and i = ref 0 in
          while !i < n_buckets - 1 && float_of_int (!cum + t.buckets.(!i)) < target do
            cum := !cum + t.buckets.(!i);
            Stdlib.incr i
          done;
          Float.min (upper_bound !i) t.h_max
        end)

  (* Snapshot src under its own lock, then fold into dst under dst's —
     never both at once, so merge directions cannot deadlock. *)
  let merge_hist_into ~src ~dst =
    let sb, sc, ss, smin, smax =
      Mutex.protect src.h_mu (fun () ->
          (Array.copy src.buckets, src.h_count, src.h_sum, src.h_min, src.h_max))
    in
    Mutex.protect dst.h_mu (fun () ->
        Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) sb;
        dst.h_count <- dst.h_count + sc;
        dst.h_sum <- dst.h_sum +. ss;
        if smin < dst.h_min then dst.h_min <- smin;
        if smax > dst.h_max then dst.h_max <- smax)

  let buckets t =
    Mutex.protect t.h_mu (fun () ->
        let acc = ref [] in
        for i = n_buckets - 1 downto 0 do
          if t.buckets.(i) > 0 then acc := (upper_bound i, t.buckets.(i)) :: !acc
        done;
        !acc)
end

let metrics_of r = Mutex.protect r.mu (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) r.tbl [])

let merge_into ~src ~dst =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Counter.add (Counter.v ~registry:dst name) (Atomic.get c)
      | Gauge g ->
          let x = Atomic.get g in
          if not (Float.is_nan x) then Gauge.set (Gauge.v ~registry:dst name) x
      | Histogram h ->
          Histogram.merge_hist_into ~src:h ~dst:(Histogram.v ~registry:dst name))
    (metrics_of src)

(* Gauges that were never set (value NaN) are omitted from exports:
   they are registrations, not observations. *)
let sorted_metrics r =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.filter
       (fun (_, m) ->
         match m with Gauge g when Float.is_nan (Atomic.get g) -> false | _ -> true)
       (metrics_of r))

let metric_jsonl name = function
  | Counter c ->
      Jsonx.obj
        [
          ("type", Jsonx.str "counter");
          ("name", Jsonx.str name);
          ("value", Jsonx.int (Atomic.get c));
        ]
  | Gauge g ->
      Jsonx.obj
        [
          ("type", Jsonx.str "gauge");
          ("name", Jsonx.str name);
          ("value", Jsonx.float (Atomic.get g));
        ]
  | Histogram h ->
      let buckets =
        List.map
          (fun (le, c) -> Jsonx.obj [ ("le", Jsonx.float le); ("count", Jsonx.int c) ])
          (Histogram.buckets h)
      in
      Jsonx.obj
        [
          ("type", Jsonx.str "histogram");
          ("name", Jsonx.str name);
          ("count", Jsonx.int (Histogram.count h));
          ("sum", Jsonx.float (Histogram.sum h));
          ("min", Jsonx.float (Histogram.min_value h));
          ("max", Jsonx.float (Histogram.max_value h));
          ("buckets", Jsonx.arr buckets);
        ]

let to_jsonl r = List.map (fun (name, m) -> metric_jsonl name m) (sorted_metrics r)

let pp_table fmt r =
  let rows =
    List.map
      (fun (name, m) ->
        let value =
          match m with
          | Counter c -> string_of_int (Atomic.get c)
          | Gauge g -> Printf.sprintf "%g" (Atomic.get g)
          | Histogram h ->
              let n = Histogram.count h in
              if n = 0 then "n=0"
              else
                Printf.sprintf "n=%d mean=%.4g min=%.4g max=%.4g p50<=%.4g p99<=%.4g" n
                  (Histogram.mean h) (Histogram.min_value h) (Histogram.max_value h)
                  (Histogram.quantile h 0.5) (Histogram.quantile h 0.99)
        in
        (name, kind_name m, value))
      (sorted_metrics r)
  in
  let w1 = List.fold_left (fun w (n, _, _) -> max w (String.length n)) 6 rows in
  Format.fprintf fmt "%-*s %-9s %s@\n" w1 "metric" "type" "value";
  List.iter (fun (n, k, v) -> Format.fprintf fmt "%-*s %-9s %s@\n" w1 n k v) rows

module Private = struct
  let create = create
end
