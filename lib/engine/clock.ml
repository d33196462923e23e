let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) /. 1e9

let after_ms ms =
  let now = now_ns () in
  if ms >= (max_int - 1 - now) / 1_000_000 then max_int - 1
  else now + (ms * 1_000_000)
