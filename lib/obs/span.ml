let with_span ?registry name f =
  if not (Obs.enabled ()) then f ()
  else begin
    let h = Metrics.Histogram.v ?registry ("span." ^ name) in
    let t0 = Sys.time () in
    Fun.protect
      ~finally:(fun () -> Metrics.Histogram.observe h (Float.max 0.0 (Sys.time () -. t0)))
      f
  end
