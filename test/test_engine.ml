(* Tests for the parallel evaluation engine: pool/sequential agreement on
   every construction at small k, order-independence (and determinism) of
   the monoid reductions, JSON escaping round-trips, pool plumbing
   (exception propagation, reuse, nesting), and the metrics registry's
   laws. *)

open Bi_num
module Pool = Bi_engine.Pool
module Reduce = Bi_engine.Reduce
module Sink = Bi_engine.Sink
module Metrics = Bi_engine.Metrics
module Complete = Bi_ncs.Complete
module Bncs = Bi_ncs.Bayesian_ncs
module Measures = Bi_bayes.Measures
module Graph = Bi_graph.Graph

let ext = Alcotest.testable Extended.pp Extended.equal
let ext_opt = Alcotest.option ext
let rat = Alcotest.testable Rat.pp Rat.equal

(* --- (a) pool results = sequential results, every construction, small k --- *)

let constructions =
  [
    ("anshelevich k=3", fun () -> Bi_constructions.Anshelevich_game.game 3);
    ("anshelevich k=4", fun () -> Bi_constructions.Anshelevich_game.game 4);
    ("gworst-bliss k=3", fun () -> Bi_constructions.Gworst_game.bliss_game 3);
    ("gworst-curse k=3", fun () -> Bi_constructions.Gworst_game.curse_game 3);
    ("diamond level 1", fun () -> snd (Bi_constructions.Diamond_game.game 1));
  ]

let check_report name seq par =
  let field fname get = Alcotest.check ext_opt (name ^ " " ^ fname) (get seq) (get par) in
  Alcotest.check ext (name ^ " optP") seq.Measures.opt_p par.Measures.opt_p;
  Alcotest.check ext (name ^ " optC") seq.Measures.opt_c par.Measures.opt_c;
  field "best-eqP" (fun r -> r.Measures.best_eq_p);
  field "worst-eqP" (fun r -> r.Measures.worst_eq_p);
  field "best-eqC" (fun r -> r.Measures.best_eq_c);
  field "worst-eqC" (fun r -> r.Measures.worst_eq_c)

let test_measures_pool_equals_sequential () =
  Pool.with_pool 4 (fun pool ->
      List.iter
        (fun (name, make) ->
          let game = make () in
          check_report name (Bncs.measures_exhaustive game)
            (Bncs.measures_exhaustive ~pool game))
        constructions)

let test_profiles_pool_equals_sequential () =
  (* Not only the values: the witnessing profiles must match too, i.e.
     parallel tie-breaking is the sequential first-wins one. *)
  Pool.with_pool 3 (fun pool ->
      List.iter
        (fun (name, make) ->
          let game = make () in
          let c_seq, s_seq = Bncs.opt_p_exhaustive game in
          let c_par, s_par = Bncs.opt_p_exhaustive ~pool game in
          Alcotest.check ext (name ^ " optP value") c_seq c_par;
          Alcotest.(check bool) (name ^ " optP profile") true (s_seq = s_par);
          (match (Bncs.worst_eq_p game, Bncs.worst_eq_p ~pool game) with
           | Some (v1, p1), Some (v2, p2) ->
             Alcotest.check ext (name ^ " worst-eqP value") v1 v2;
             Alcotest.(check bool) (name ^ " worst-eqP profile") true (p1 = p2)
           | None, None -> ()
           | _ -> Alcotest.fail (name ^ ": equilibrium existence disagrees")))
        [ List.nth constructions 0; List.nth constructions 2; List.nth constructions 3 ])

let complete_fixture () =
  (* Two agents, parallel edges plus a detour: several ties to break. *)
  let graph =
    Graph.make Undirected ~n:3
      [ (0, 1, Rat.one); (0, 1, Rat.one); (0, 2, Rat.one); (2, 1, Rat.one) ]
  in
  Complete.make graph [| (0, 1); (0, 1) |]

let test_complete_pool_equals_sequential () =
  Pool.with_pool 4 (fun pool ->
      let g = complete_fixture () in
      let c_seq, a_seq = Complete.optimum g in
      let c_par, a_par = Complete.optimum ~pool g in
      Alcotest.check rat "optimum value" c_seq c_par;
      Alcotest.(check bool) "optimum profile" true (a_seq = a_par);
      List.iter
        (fun (name, pick) ->
          match (pick ?pool:None g, pick ?pool:(Some pool) g) with
          | Some (v1, p1), Some (v2, p2) ->
            Alcotest.check rat (name ^ " value") v1 v2;
            Alcotest.(check bool) (name ^ " profile") true (p1 = p2)
          | None, None -> ()
          | _ -> Alcotest.fail (name ^ ": existence disagrees"))
        [
          ("best equilibrium", fun ?pool g -> Complete.best_equilibrium ?pool g);
          ("worst equilibrium", fun ?pool g -> Complete.worst_equilibrium ?pool g);
        ])

(* --- (b) reductions are order-independent and deterministic --- *)

let test_reduce_order_independence () =
  let rng = Random.State.make [| 0xbeef |] in
  let xs =
    Array.init 257 (fun _ ->
        Rat.of_ints (Random.State.int rng 2001 - 1000) (1 + Random.State.int rng 97))
  in
  let expected = Array.fold_left Rat.add Rat.zero xs in
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          List.iter
            (fun chunk ->
              let got = Reduce.map_reduce pool ~chunk ~monoid:Reduce.rat_sum Fun.id xs in
              Alcotest.check rat
                (Printf.sprintf "rat sum, pool %d chunk %d" size chunk)
                expected got)
            [ 1; 3; 7; 64; 1000 ]))
    [ 1; 2; 4 ]

let test_first_min_tie_breaking () =
  (* Duplicate minima: the earliest index must win under any schedule. *)
  let xs = Array.init 100 (fun i -> (i, i mod 5)) in
  let monoid = Reduce.first_min ~cmp:Int.compare in
  let expected = Reduce.fold monoid (Array.map Option.some xs) in
  (match expected with
   | Some (0, 0) -> ()
   | _ -> Alcotest.fail "sequential first_min should pick index 0");
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          for chunk = 1 to 9 do
            let got = Reduce.map_reduce pool ~chunk ~monoid Option.some xs in
            Alcotest.(check bool)
              (Printf.sprintf "first_min pool %d chunk %d" size chunk)
              true (got = expected)
          done))
    [ 2; 4 ];
  let m_max = Reduce.first_max ~cmp:Int.compare in
  let expected_max = Reduce.fold m_max (Array.map Option.some xs) in
  (match expected_max with
   | Some (4, 4) -> () (* first element achieving the max value 4 *)
   | _ -> Alcotest.fail "sequential first_max should pick index 4");
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check bool) "first_max parallel" true
        (Reduce.map_reduce pool ~chunk:3 ~monoid:m_max Option.some xs = expected_max))

let test_both_monoid () =
  let xs = Array.init 50 (fun i -> i) in
  let monoid = Reduce.both Reduce.int_sum (Reduce.first_max ~cmp:Int.compare) in
  Pool.with_pool 3 (fun pool ->
      let total, best =
        Reduce.map_reduce pool ~chunk:4 ~monoid (fun i -> (i, Some (i, i * i))) xs
      in
      Alcotest.(check int) "sum component" 1225 total;
      Alcotest.(check bool) "argmax component" true (best = Some (49, 2401)))

(* --- (c) JSON encoder round-trips escaping --- *)

(* Minimal JSON string decoder: the inverse of Sink.escape over the
   encoder's output language. *)
let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if s.[i] = '\\' then begin
      (match s.[i + 1] with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         Buffer.add_char buf
           (Char.chr (int_of_string ("0x" ^ String.sub s (i + 2) 4)))
       | c -> Alcotest.fail (Printf.sprintf "unexpected escape \\%c" c));
      go (i + if s.[i + 1] = 'u' then 6 else 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let adversarial_strings =
  [
    "";
    "plain";
    "with \"quotes\" inside";
    "back\\slash \\\" mix";
    "newline\nand\ttab\rand\bbell\007";
    String.init 32 Char.chr;
    "utf-8 séries: Gâteau — ≤ Ω(k) 🎲";
    "</script><script>alert(1)</script>";
    "trailing backslash \\";
    String.make 10_000 '"';
  ]

let test_json_escape_round_trip () =
  List.iter
    (fun s ->
      let encoded = Sink.escape s in
      (* No raw control bytes or bare quotes may survive encoding. *)
      String.iter
        (fun c ->
          if Char.code c < 0x20 then
            Alcotest.fail "control byte leaked through escaping")
        encoded;
      Alcotest.(check string) "round trip" s (unescape encoded))
    adversarial_strings

let test_json_to_string () =
  let j =
    Sink.Obj
      [
        ("name", Sink.Str "tab\there");
        ("xs", Sink.List [ Sink.Int 1; Sink.Float 0.5; Sink.Null; Sink.Bool true ]);
        ("nan", Sink.Float Float.nan);
        ("inf", Sink.Float Float.infinity);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"name\":\"tab\\there\",\"xs\":[1,0.5,null,true],\"nan\":null,\"inf\":null}"
    (Sink.to_string j);
  (* A sink file is one valid JSON object per line. *)
  let path = Filename.temp_file "bi_sink" ".json" in
  let sink = Sink.create path in
  Sink.emit sink [ ("record", Sink.Str "row"); ("k", Sink.Int 3) ];
  Sink.table sink ~section:"t" ~header:[ "paper bound"; "verdict" ]
    [ [ "O(k)"; "PASS" ]; [ "O(1)"; "FAIL" ] ];
  Sink.close sink;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "line count" 3 (List.length lines);
  Alcotest.(check bool) "keys slugified" true
    (List.exists
       (fun l ->
         l = "{\"record\":\"row\",\"section\":\"t\",\"paper_bound\":\"O(k)\",\"verdict\":\"PASS\"}")
       lines);
  Sys.remove path

(* --- pool plumbing --- *)

exception Boom

let test_pool_exception_propagation () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.check_raises "exception reaches caller" Boom (fun () ->
          Pool.parallel_for pool 100 (fun lo _ -> if lo > 50 then raise Boom));
      (* The pool survives a failed job. *)
      let out = Pool.map_array pool (fun x -> x * x) (Array.init 10 Fun.id) in
      Alcotest.(check bool) "reusable after failure" true
        (out = Array.init 10 (fun i -> i * i)))

let test_pool_nested_and_empty () =
  Pool.with_pool 2 (fun pool ->
      Pool.parallel_for pool 0 (fun _ _ -> Alcotest.fail "empty range ran");
      (* Nested parallel ops degrade to sequential instead of deadlocking. *)
      let out =
        Pool.map_array pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array pool (fun j -> (i * 10) + j) (Array.init 5 Fun.id)))
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool) "nested result" true
        (out = Array.init 8 (fun i -> (i * 50) + 10)))

(* --- (e) JSON parser round-trip and concurrent emit ------------------ *)

(* Generator for parser-exact values: no floats (the renderer collapses
   non-finite floats to null and shortest-form printing is not what the
   parser checks), strings over arbitrary bytes. *)
let gen_json =
  let open QCheck2.Gen in
  sized_size (int_range 0 4) (fix (fun self n ->
      let scalar =
        oneof
          [
            return Sink.Null;
            map (fun b -> Sink.Bool b) bool;
            map (fun i -> Sink.Int i) (int_range (-1_000_000) 1_000_000);
            map (fun s -> Sink.Str s) (string_size (int_range 0 12));
          ]
      in
      if n = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun xs -> Sink.List xs) (list_size (int_range 0 4) (self (n - 1)));
            map
              (fun kvs -> Sink.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size (int_range 0 8)) (self (n - 1))));
          ]))

(* Structural equality is too strict for round-trips only when objects
   hold duplicate keys (last-one-wins on parse is fine to rule out by
   re-rendering): compare rendered forms instead. *)
let prop_parse_print_roundtrip =
  QCheck2.Test.make ~name:"of_string inverts to_string" ~count:1000 gen_json
    (fun j ->
      match Sink.of_string (Sink.to_string j) with
      | Ok j' -> Sink.to_string j = Sink.to_string j'
      | Error _ -> false)

let test_parser_rejects () =
  List.iter
    (fun s ->
      match Sink.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "tru"; "\"unterminated";
      "1 2"; "{\"a\":1}garbage"; "\"bad \\q escape\""; "nulll";
    ]

let test_parser_accepts_edge_cases () =
  List.iter
    (fun (s, expect) ->
      match Sink.of_string s with
      | Ok j -> Alcotest.(check string) s expect (Sink.to_string j)
      | Error e -> Alcotest.failf "parser rejected %S: %s" s e)
    [
      ("  {  } ", "{}");
      ("[ ]", "[]");
      ("-0.5e1", "-5");
      ({|"Aé"|}, {|"Aé"|});
      ({|{"a":[1,{"b":null}]}|}, {|{"a":[1,{"b":null}]}|});
    ]

(* The concurrency guarantee of Sink.emit: lines from racing domains
   never interleave mid-line — every line of the file parses and the
   count matches. *)
let test_sink_concurrent_emit () =
  let path = Filename.temp_file "bi_sink_par" ".json" in
  let sink = Sink.create path in
  let domains = 4 and lines_per_domain = 200 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to lines_per_domain - 1 do
              Sink.emit sink
                [
                  ("record", Sink.Str "row");
                  ("domain", Sink.Int d);
                  ("i", Sink.Int i);
                  ("payload", Sink.Str (String.make (8 + ((d + i) mod 32)) 'x'));
                ]
            done))
  in
  List.iter Domain.join spawned;
  Sink.close sink;
  let ic = open_in path in
  let count = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr count;
       match Sink.of_string line with
       | Ok (Sink.Obj _) -> ()
       | Ok _ -> Alcotest.fail "line is not an object"
       | Error e -> Alcotest.failf "torn line: %s" e
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "every emit produced exactly one line"
    (domains * lines_per_domain) !count;
  Sys.remove path

(* A graph derives its edge records and adjacency lists on first use
   (lib/graph).  Four domains released together make the first use of
   each of a batch of fresh graphs, half of them reaching the records
   through [succ] and half directly: nothing raises, and every domain
   sees what a graph built afterwards shows sequentially. *)
let graph_view ~succ_first g =
  if succ_first then ignore (Graph.succ g 0) else ignore (Graph.edges g);
  let n = Graph.n_vertices g and all = List.init (Graph.n_edges g) Fun.id in
  ( List.map
      (fun (e : Graph.edge) -> (e.id, e.src, e.dst, Rat.to_string e.cost))
      (Graph.edges g),
    List.init n (fun v ->
        List.map (fun ((e : Graph.edge), w) -> (e.id, w)) (Graph.succ g v)),
    Array.to_list (Array.map Extended.to_string (fst (Graph.dijkstra g 0))),
    List.init n (fun v -> Graph.reachable g ~via:all 0 v) )

let test_graph_first_use_races () =
  let rounds = 200 and domains = 4 in
  let fresh i =
    Bi_graph.Gen.random_graph
      (Random.State.make [| i |])
      ~kind:(if i mod 2 = 0 then Graph.Directed else Graph.Undirected)
      ~n:(20 + (i mod 30)) ~p:0.3 ~max_cost:9
  in
  let graphs = Array.init rounds fresh in
  let ready = Atomic.make 0 in
  let views =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            Array.map (graph_view ~succ_first:(d mod 2 = 1)) graphs))
    |> List.map Domain.join
  in
  let expected = Array.init rounds (fun i -> graph_view ~succ_first:false (fresh i)) in
  List.iteri
    (fun d view ->
      Array.iteri
        (fun i v ->
          if v <> expected.(i) then Alcotest.failf "domain %d, graph %d differs" d i)
        view)
    views

(* Jobs counts are validated on arrival, both on the command line and in
   BI_JOBS: a count the pool cannot honor is a structured error, never a
   silent clamp to one worker. *)
let test_parse_jobs () =
  (match Pool.parse_jobs "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "plain count accepted");
  (match Pool.parse_jobs " 2 " with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "surrounding whitespace trimmed");
  List.iter
    (fun s ->
      match Pool.parse_jobs s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s))
    [ "0"; "-3"; "abc"; ""; "2.5" ];
  Unix.putenv "BI_JOBS" "3";
  (match Pool.env_jobs () with
  | Ok (Some 3) -> ()
  | _ -> Alcotest.fail "well-formed BI_JOBS honored");
  Unix.putenv "BI_JOBS" "nope";
  (match Pool.env_jobs () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed BI_JOBS must be an error");
  (* putenv cannot unset; leave the default behind for later tests *)
  Unix.putenv "BI_JOBS" "1"

(* --- budgets on the monotonic clock --- *)

(* The deadline sits on a clock that never steps back, so the time left
   only shrinks, reaching zero exactly when the budget expires. *)
let test_budget_remaining_never_increases () =
  let module Budget = Bi_engine.Budget in
  let b = Budget.of_timeout_ms 30 in
  let rec watch prev =
    match Budget.remaining_ms b with
    | None -> Alcotest.fail "a limited budget reports its remaining time"
    | Some ms ->
      if ms > prev then Alcotest.failf "remaining_ms rose from %d to %d" prev ms;
      if ms > 0 then watch ms
  in
  watch max_int;
  let give_up = Bi_engine.Clock.now_ns () + 1_000_000_000 in
  while (not (Budget.expired b)) && Bi_engine.Clock.now_ns () < give_up do
    ()
  done;
  Alcotest.(check bool) "expires once nothing remains" true (Budget.expired b);
  Alcotest.(check (option int)) "and stays at zero" (Some 0) (Budget.remaining_ms b);
  let clock = ref (Bi_engine.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let now = Bi_engine.Clock.now_ns () in
    if now < !clock then Alcotest.fail "the clock stepped back";
    clock := now
  done;
  Alcotest.(check bool) "unlimited has no deadline" true
    (Budget.remaining_ms Budget.unlimited = None)

(* A timeout too long to add to the clock (clients send 2^53 - 1 or
   max_int to mean "no limit") saturates instead of wrapping into the
   past: the budget stays limited, unexpired, with time left. *)
let test_budget_huge_timeout_saturates () =
  let module Budget = Bi_engine.Budget in
  List.iter
    (fun ms ->
      let b = Budget.of_timeout_ms ms in
      let what = string_of_int ms in
      Alcotest.(check bool) (what ^ " is limited") true (Budget.is_limited b);
      Alcotest.(check bool) (what ^ " is not expired") false (Budget.expired b);
      for _ = 1 to 1_000 do
        Budget.check b
      done;
      match Budget.remaining_ms b with
      | Some left when left > 0 -> ()
      | Some left -> Alcotest.failf "%s: remaining_ms %d" what left
      | None -> Alcotest.failf "%s: no remaining time" what)
    [ 9_007_199_254_740_991; max_int / 1_000_000; max_int ]

(* --- metrics registry ---------------------------------------------------- *)

let histogram_counts j name =
  match Sink.member name j with
  | Some (Sink.List buckets) ->
    List.map
      (fun b ->
        match (Sink.member "le_us" b, Sink.member "count" b) with
        | Some (Sink.Int le), Some (Sink.Int n) -> (le, n)
        | _ -> Alcotest.fail "malformed bucket")
      buckets
  | _ -> Alcotest.failf "histogram %s missing" name

(* Four threads and two domains hammer one counter, gauge and histogram
   at once: no update is lost, the gauge ends at zero, and its peak is
   a level some moment really had. *)
let test_metrics_concurrent () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let added = Metrics.counter r "added" in
  let g = Metrics.gauge r "g" ~peak:"g_max" in
  let h = Metrics.histogram r "h" in
  let rounds = 20_000 in
  let work () =
    for _ = 1 to rounds do
      Metrics.incr c;
      Metrics.add added 3;
      Metrics.enter g;
      Metrics.observe h ~ns:5_000;
      Metrics.leave g
    done
  in
  let threads = List.init 4 (fun _ -> Thread.create work ()) in
  let domains = List.init 2 (fun _ -> Domain.spawn work) in
  List.iter Thread.join threads;
  List.iter Domain.join domains;
  let workers = 6 in
  Alcotest.(check int) "counter" (workers * rounds) (Metrics.count c);
  Alcotest.(check int) "add" (3 * workers * rounds) (Metrics.count added);
  Alcotest.(check int) "gauge back to zero" 0 (Metrics.level g);
  let j = Metrics.to_json r in
  Alcotest.(check bool) "peak within the workers" true
    (match Sink.member "g_max" j with
    | Some (Sink.Int p) -> p >= 1 && p <= workers
    | _ -> false);
  Alcotest.(check (list (pair int int))) "every latency in its bucket"
    [ (1, 0); (3, 0); (7, workers * rounds) ]
    (histogram_counts j "h")

let test_metrics_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "depth" ~peak:"max_depth" in
  List.iter
    (fun step -> if step then Metrics.enter g else Metrics.leave g)
    [ true; true; true; false; false; true; false; false ];
  Alcotest.(check int) "level" 0 (Metrics.level g);
  Alcotest.(check string) "level and high-water mark"
    {|{"depth":0,"max_depth":3}|}
    (Sink.to_string (Metrics.to_json r))

(* Bucket i > 0 holds 2^i .. 2^(i+1) - 1 whole microseconds; bucket 0
   everything up to 1 us; the last bucket everything beyond. *)
let test_metrics_histogram_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "latency_log2_us" in
  Alcotest.(check string) "empty histogram" {|{"latency_log2_us":[]}|}
    (Sink.to_string (Metrics.to_json r));
  List.iter
    (fun ns -> Metrics.observe h ~ns)
    [ 0; 999; 1_999; 2_000; 3_999; 4_000; max_int ];
  let counts = histogram_counts (Metrics.to_json r) "latency_log2_us" in
  Alcotest.(check int) "32 buckets up to the last non-empty one" 32
    (List.length counts);
  Alcotest.(check (list (pair int int))) "first buckets"
    [ (1, 3); (3, 2); (7, 1); (15, 0) ]
    (List.filteri (fun i _ -> i < 4) counts);
  Alcotest.(check (pair int int)) "huge values land in the last bucket"
    ((1 lsl 32) - 1, 1)
    (List.nth counts 31)

let test_metrics_registration_order () =
  let r = Metrics.create () in
  let zeta = Metrics.counter r "zeta" in
  let g = Metrics.gauge r "alpha" ~peak:"alpha_max" in
  let _mid = Metrics.counter r "mid" in
  let h = Metrics.histogram r "h" in
  Metrics.incr zeta;
  Metrics.enter g;
  Metrics.observe h ~ns:2_500;
  Alcotest.(check string) "members in registration order"
    {|{"zeta":1,"alpha":1,"alpha_max":1,"mid":0,"h":[{"le_us":1,"count":0},{"le_us":3,"count":1}]}|}
    (Sink.to_string (Metrics.to_json r))

let parser_qtests =
  List.map QCheck_alcotest.to_alcotest [ prop_parse_print_roundtrip ]

let () =
  Alcotest.run "engine"
    [
      ( "pool-vs-sequential",
        [
          Alcotest.test_case "measures agree on all constructions" `Slow
            test_measures_pool_equals_sequential;
          Alcotest.test_case "witness profiles agree" `Slow
            test_profiles_pool_equals_sequential;
          Alcotest.test_case "complete-information solvers agree" `Quick
            test_complete_pool_equals_sequential;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "sum is schedule-independent" `Quick
            test_reduce_order_independence;
          Alcotest.test_case "first-wins tie-breaking" `Quick
            test_first_min_tie_breaking;
          Alcotest.test_case "fused pair reduction" `Quick test_both_monoid;
        ] );
      ( "sink",
        [
          Alcotest.test_case "escape round-trips" `Quick test_json_escape_round_trip;
          Alcotest.test_case "rendering and line records" `Quick test_json_to_string;
          Alcotest.test_case "parser rejects malformed input" `Quick
            test_parser_rejects;
          Alcotest.test_case "parser accepts edge cases" `Quick
            test_parser_accepts_edge_cases;
          Alcotest.test_case "concurrent emit keeps lines whole" `Quick
            test_sink_concurrent_emit;
        ]
        @ parser_qtests );
      ( "pool",
        [
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "nested and empty ranges" `Quick
            test_pool_nested_and_empty;
          Alcotest.test_case "jobs validation" `Quick test_parse_jobs;
        ] );
      ( "budget",
        [
          Alcotest.test_case "remaining time never increases" `Quick
            test_budget_remaining_never_increases;
          Alcotest.test_case "huge timeouts saturate" `Quick
            test_budget_huge_timeout_saturates;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "no lost concurrent updates" `Quick
            test_metrics_concurrent;
          Alcotest.test_case "gauge level and high-water" `Quick
            test_metrics_gauge;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_metrics_histogram_edges;
          Alcotest.test_case "json in registration order" `Quick
            test_metrics_registration_order;
        ] );
      ( "graph-store",
        [
          Alcotest.test_case "first use from four domains at once" `Quick
            test_graph_first_use_races;
        ] );
    ]
