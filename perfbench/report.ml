(* What one run found: metric values by name, the operation tally for
   the result line, failed correctness checks, and the human-readable
   lines printed ahead of it. Units live in the catalogue of
   [Rekeybench]. *)

type t = {
  mutable metrics : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable notes : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; errors = []; notes = [] }
let set r name v = r.metrics <- (name, v) :: List.remove_assoc name r.metrics
let get r name = List.assoc_opt name r.metrics
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let error r fmt = Printf.ksprintf (fun s -> r.errors <- s :: r.errors) fmt

(* [ok] is one correctness check on one member-rekey (or rejoin). *)
let check r ok fmt =
  Printf.ksprintf
    (fun s ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        if List.length r.errors < 20 then r.errors <- s :: r.errors
      end)
    fmt
