type t = {
  wall : int; (* monotonic nanoseconds *)
  minor : float;
  major : float;
}

type span = {
  seconds : float;
  minor_words : float;
  major_words : float;
}

let start () =
  let s = Gc.quick_stat () in
  { wall = Clock.now_ns (); minor = s.Gc.minor_words; major = s.Gc.major_words }

let elapsed t0 = Clock.since t0.wall

let span t0 =
  let s = Gc.quick_stat () in
  {
    seconds = Clock.since t0.wall;
    minor_words = s.Gc.minor_words -. t0.minor;
    major_words = s.Gc.major_words -. t0.major;
  }

let timed f =
  let t0 = start () in
  let x = f () in
  (x, span t0)

let pp_seconds fmt dt = Format.fprintf fmt "%.2fs" dt

let pp_words fmt w =
  if w >= 1e9 then Format.fprintf fmt "%.2fG" (w /. 1e9)
  else if w >= 1e6 then Format.fprintf fmt "%.2fM" (w /. 1e6)
  else if w >= 1e3 then Format.fprintf fmt "%.2fk" (w /. 1e3)
  else Format.fprintf fmt "%.0f" w

let pp_span fmt s =
  Format.fprintf fmt "%a, %aw minor + %aw major" pp_seconds s.seconds pp_words
    s.minor_words pp_words s.major_words
