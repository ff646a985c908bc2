module Prng = Gkm_crypto.Prng

type config = {
  max_attempts : int;
  rtt : float;
  base_delay : float;
  max_delay : float;
  jitter : float;
}

let default = { max_attempts = 8; rtt = 2.0; base_delay = 1.0; max_delay = 60.0; jitter = 0.5 }

type outcome =
  | Synced of { attempts : int; latency : float }
  | Gave_up of { attempts : int; latency : float }

let request ?(config = default) ~rng ~loss_at () =
  if config.max_attempts < 1 then invalid_arg "Resync.request: need at least one attempt";
  if config.rtt <= 0.0 then invalid_arg "Resync.request: non-positive rtt";
  if config.base_delay < 0.0 || config.max_delay < config.base_delay then
    invalid_arg "Resync.request: bad backoff delays";
  if config.jitter < 0.0 || config.jitter >= 1.0 then
    invalid_arg "Resync.request: jitter outside [0, 1)";
  let rec attempt i elapsed =
    let p = Float.max 0.0 (Float.min 1.0 (loss_at elapsed)) in
    (* Two independent crossings of the lossy path; both draws are
       consumed regardless of the first one's outcome so the stream
       consumption per attempt is fixed. *)
    let req_lost = Prng.bernoulli rng p in
    let rsp_lost = Prng.bernoulli rng p in
    let elapsed = elapsed +. config.rtt in
    if (not req_lost) && not rsp_lost then Synced { attempts = i; latency = elapsed }
    else if i >= config.max_attempts then Gave_up { attempts = i; latency = elapsed }
    else begin
      let backoff =
        Float.min config.max_delay (config.base_delay *. (2.0 ** float_of_int (i - 1)))
      in
      let jit = 1.0 -. config.jitter +. Prng.float rng (2.0 *. config.jitter) in
      attempt (i + 1) (elapsed +. (backoff *. jit))
    end
  in
  attempt 1 0.0
