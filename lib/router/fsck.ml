module Sink = Bi_engine.Sink
module Store = Bi_cache.Store

(* Consistency checker over a set of replica sources — live shards
   (digest/pull/put over the wire) or store files on disk.  A source is
   a name on the ring plus three capabilities; the driver below is pure
   with respect to how they are implemented, which is what lets the
   chaos harness fsck a half-dead cluster from its store files while
   the shards are still running. *)

type source = {
  name : string;  (* ring member name *)
  keys : unit -> ((string * string) list, string) result;
      (* all resident (key, check) pairs *)
  pull : string list -> (Store.entry list, string) result;
  push : Store.entry -> (unit, string) result;
}

type divergence = {
  key : string;
  bucket : int;
  holders : (string * string) list;  (* source name, check *)
  missing : string list;  (* owner sources lacking the key *)
  authority : string;  (* source whose copy wins *)
}

type report = {
  sources : string list;
  unreachable : (string * string) list;
  keys_checked : int;
  divergent : divergence list;
  repaired : int;
  repair_failures : (string * string) list;  (* key, error *)
  remaining : int;  (* divergences left after the repair pass *)
}

(* --- sources ----------------------------------------------------------- *)

(* Offline source: a shard's append-only store file.  Reads reconstruct
   exactly what a replay would (last verified entry per key); pushes
   append, preserving the same convergence rule.  Assumes the file is
   not being compacted concurrently — appends by a live shard are safe
   to race (reads see a prefix of whole lines). *)
let store_source ~name path =
  let load () =
    let entries, _invalid = Store.load path in
    let last = Hashtbl.create 64 in
    List.iter (fun (e : Store.entry) -> Hashtbl.replace last e.Store.key e) entries;
    last
  in
  {
    name;
    keys =
      (fun () ->
        match load () with
        | exception Sys_error e -> Error e
        | last ->
          Ok
            (Hashtbl.fold
               (fun k (e : Store.entry) acc -> (k, e.Store.check) :: acc)
               last []));
    pull =
      (fun keys ->
        match load () with
        | exception Sys_error e -> Error e
        | last ->
          Ok (List.filter_map (fun k -> Hashtbl.find_opt last k) keys));
    push =
      (fun entry ->
        match
          let s = Store.open_append path in
          Fun.protect ~finally:(fun () -> Store.close s) (fun () ->
              Store.append s entry)
        with
        | () -> Ok ()
        | exception Sys_error e -> Error e);
  }

(* Live source: one protocol exchange per operation, provided by the
   caller (the CLI wires it to [Client]; keeping the transport out of
   this module keeps the driver deterministic and testable). *)
let exchange_source ~name exchange =
  let call line decode =
    match exchange line with
    | Error e -> Error e
    | Ok resp ->
      if Bi_serve.Protocol.is_ok resp then decode resp
      else
        Error
          (match Sink.member "error" resp with
          | Some (Sink.Str e) -> e
          | _ -> "shard refused")
  in
  {
    name;
    keys =
      (fun () ->
        (* Rollup first, then only the non-empty buckets: O(buckets)
           exchanges, each bounded by one bucket's keys. *)
        match
          call
            (Sink.to_string (Bi_serve.Protocol.digest_request ()))
            Bi_serve.Protocol.rollup_of
        with
        | Error e -> Error e
        | Ok rollup ->
          List.fold_left
            (fun acc (b, _digest) ->
              match acc with
              | Error _ -> acc
              | Ok pairs -> (
                match
                  call
                    (Sink.to_string (Bi_serve.Protocol.digest_request ~bucket:b ()))
                    Bi_serve.Protocol.bucket_keys_of
                with
                | Error e -> Error e
                | Ok more -> Ok (pairs @ more)))
            (Ok []) rollup);
    pull =
      (fun keys ->
        call
          (Sink.to_string (Bi_serve.Protocol.pull_request keys))
          Bi_serve.Protocol.entries_of);
    push =
      (fun (e : Store.entry) ->
        call
          (Bi_serve.Protocol.put_line ~kind:e.Store.kind
             ~fingerprint:e.Store.key e.Store.body)
          (fun _ -> Ok ()));
  }

(* --- divergence -------------------------------------------------------- *)

(* One scan over the reachable sources: for every key, compare the
   copies held by its *owner* sources (per the ring; non-owner strays
   are legitimate leftovers of membership changes, not divergence).
   The authoritative copy is the holder earliest in the ring's owner
   order — the deterministic proxy for last-writer-wins that every
   repair path (here, anti-entropy, hint drain) agrees on. *)
let divergences ~ring ~replicas tables =
  let names = List.map fst tables in
  let union = Hashtbl.create 256 in
  List.iter
    (fun (_name, tbl) ->
      Hashtbl.iter (fun k _ -> Hashtbl.replace union k ()) tbl)
    tables;
  let divergent = ref [] in
  let checked = ref 0 in
  Hashtbl.iter
    (fun key () ->
      let owners = Ring.owners ring ~n:replicas key in
      let owner_sources = List.filter (fun n -> List.mem n owners) names in
      if owner_sources <> [] then begin
        incr checked;
        let holders, missing =
          List.partition_map
            (fun n ->
              match
                Option.bind (List.assoc_opt n tables) (fun tbl ->
                    Hashtbl.find_opt tbl key)
              with
              | Some check -> Either.Left (n, check)
              | None -> Either.Right n)
            (* Holders in ring-owner order, so the first is authoritative. *)
            (List.filter (fun o -> List.mem o owner_sources) owners)
        in
        let distinct_checks =
          List.sort_uniq compare (List.map snd holders)
        in
        if holders <> [] && (missing <> [] || List.length distinct_checks > 1)
        then
          divergent :=
            {
              key;
              bucket = Store.bucket_of_key key;
              holders;
              missing;
              authority = fst (List.hd holders);
            }
            :: !divergent
      end)
    union;
  (!checked, List.sort (fun a b -> compare a.key b.key) !divergent)

let gather sources =
  List.fold_left
    (fun (tables, unreachable) s ->
      match s.keys () with
      | Ok pairs ->
        let tbl = Hashtbl.create 64 in
        List.iter (fun (k, c) -> Hashtbl.replace tbl k c) pairs;
        ((s.name, tbl) :: tables, unreachable)
      | Error e -> (tables, (s.name, e) :: unreachable))
    ([], []) sources
  |> fun (tables, unreachable) -> (List.rev tables, List.rev unreachable)

(* Who gets the authority's copy: every owner that lacks the key or
   holds a copy whose check differs from the authority's. *)
let targets d =
  let authority_check = List.assoc d.authority d.holders in
  d.missing
  @ List.filter_map
      (fun (n, check) -> if check <> authority_check then Some n else None)
      d.holders

(* Copy the authority's entry to every {!targets} owner.  Pushes go
   through the same [put] the write path uses, so a repaired entry is
   byte-identical to a replicated one. *)
let repair_one sources d =
  let source_by_name n = List.find_opt (fun s -> s.name = n) sources in
  match source_by_name d.authority with
  | None -> [ (d.key, "authority source missing") ]
  | Some auth -> (
    match auth.pull [ d.key ] with
    | Error e -> [ (d.key, Printf.sprintf "pull from %s: %s" d.authority e) ]
    | Ok [] -> [ (d.key, Printf.sprintf "%s no longer holds the key" d.authority) ]
    | Ok (entry :: _) ->
      List.filter_map
        (fun n ->
          match source_by_name n with
          | None -> Some (d.key, Printf.sprintf "source %s missing" n)
          | Some target -> (
            match target.push entry with
            | Ok () -> None
            | Error e ->
              Some (d.key, Printf.sprintf "push to %s: %s" n e)))
        (targets d))

let run ~ring ~replicas ~repair sources =
  let tables, unreachable = gather sources in
  let keys_checked, divergent = divergences ~ring ~replicas tables in
  if (not repair) || divergent = [] then
    {
      sources = List.map (fun s -> s.name) sources;
      unreachable;
      keys_checked;
      divergent;
      repaired = 0;
      repair_failures = [];
      remaining = List.length divergent;
    }
  else begin
    let repair_failures =
      List.concat_map (repair_one sources) divergent
    in
    (* Re-gather and re-judge: the report's [remaining] is measured, not
       inferred from push acks. *)
    let tables2, unreachable2 = gather sources in
    let _, still = divergences ~ring ~replicas tables2 in
    {
      sources = List.map (fun s -> s.name) sources;
      unreachable = unreachable @ unreachable2;
      keys_checked;
      divergent;
      repaired = List.length divergent - List.length still;
      repair_failures;
      remaining = List.length still;
    }
  end

(* --- report ------------------------------------------------------------ *)

let divergence_to_json d =
  Sink.Obj
    [
      ("key", Sink.Str d.key);
      ("bucket", Sink.Int d.bucket);
      ("holders",
       Sink.List
         (List.map
            (fun (n, c) -> Sink.List [ Sink.Str n; Sink.Str c ])
            d.holders));
      ("missing", Sink.List (List.map (fun n -> Sink.Str n) d.missing));
      ("authority", Sink.Str d.authority);
    ]

let per_bucket divergent =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.replace tbl d.bucket
        (1 + Option.value (Hashtbl.find_opt tbl d.bucket) ~default:0))
    divergent;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl [] |> List.sort compare

let report_to_json r =
  Sink.Obj
    [
      ("record", Sink.Str "fsck_report");
      ("sources", Sink.List (List.map (fun s -> Sink.Str s) r.sources));
      ("unreachable",
       Sink.List
         (List.map
            (fun (n, e) -> Sink.List [ Sink.Str n; Sink.Str e ])
            r.unreachable));
      ("keys_checked", Sink.Int r.keys_checked);
      ("divergent", Sink.Int (List.length r.divergent));
      ("per_bucket",
       Sink.List
         (List.map
            (fun (b, n) -> Sink.List [ Sink.Int b; Sink.Int n ])
            (per_bucket r.divergent)));
      ("divergences", Sink.List (List.map divergence_to_json r.divergent));
      ("repaired", Sink.Int r.repaired);
      ("repair_failures",
       Sink.List
         (List.map
            (fun (k, e) -> Sink.List [ Sink.Str k; Sink.Str e ])
            r.repair_failures));
      ("remaining", Sink.Int r.remaining);
    ]
