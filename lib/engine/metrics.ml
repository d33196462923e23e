type counter = int Atomic.t
type gauge = { level : int Atomic.t; peak : int Atomic.t }
type histogram = int Atomic.t array

type instrument =
  | Counter of string * counter
  | Gauge of string * string * gauge
  | Histogram of string * histogram

(* Newest first; [to_json] reverses. *)
type t = instrument list Atomic.t

let create () = Atomic.make []

let rec register t instrument =
  let old = Atomic.get t in
  if not (Atomic.compare_and_set t old (instrument :: old)) then
    register t instrument

let counter t name =
  let c = Atomic.make 0 in
  register t (Counter (name, c));
  c

let incr = Atomic.incr
let add c n = ignore (Atomic.fetch_and_add c n)
let count = Atomic.get

let gauge t name ~peak =
  let g = { level = Atomic.make 0; peak = Atomic.make 0 } in
  register t (Gauge (name, peak, g));
  g

let enter g =
  let level = Atomic.fetch_and_add g.level 1 + 1 in
  let rec raise_peak () =
    let p = Atomic.get g.peak in
    if level > p && not (Atomic.compare_and_set g.peak p level) then
      raise_peak ()
  in
  raise_peak ()

let leave g = Atomic.decr g.level
let level g = Atomic.get g.level

let buckets = 32

let histogram t name =
  let h = Array.init buckets (fun _ -> Atomic.make 0) in
  register t (Histogram (name, h));
  h

let observe h ~ns =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  Atomic.incr h.(min (buckets - 1) (log2 (ns / 1000) 0))

let histogram_json h =
  let counts = Array.map Atomic.get h in
  let rec last i = if i < 0 || counts.(i) > 0 then i else last (i - 1) in
  Sink.List
    (List.init
       (last (buckets - 1) + 1)
       (fun i ->
         Sink.Obj
           [
             ("le_us", Sink.Int ((1 lsl (i + 1)) - 1));
             ("count", Sink.Int counts.(i));
           ]))

let to_json t =
  Sink.Obj
    (List.concat_map
       (function
         | Counter (name, c) -> [ (name, Sink.Int (Atomic.get c)) ]
         | Gauge (name, peak, g) ->
           [
             (name, Sink.Int (Atomic.get g.level));
             (peak, Sink.Int (Atomic.get g.peak));
           ]
         | Histogram (name, h) -> [ (name, histogram_json h) ])
       (List.rev (Atomic.get t)))
