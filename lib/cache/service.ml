module Sink = Bi_engine.Sink
module Bncs = Bi_ncs.Bayesian_ncs

type value =
  | Analysis of Bncs.analysis
  | Payload of Sink.json

type t = {
  lru : value Lru.t;
  (* Digest view: key → md5 of the canonical body line, mirroring the
     LRU's resident key set exactly (entries leave on eviction), so the
     rollup never advertises a key that [pull] cannot serve. *)
  checks : (string, string) Hashtbl.t;
  store : Store.t option;
  store_path : string option;
  lock : Mutex.t;
  shard : string option;
  mutable hits : int;
  mutable misses : int;
  loaded : int;
  invalid : int;
  quarantined : int;
  mutable closed : bool;
}

let kind_of = function Analysis _ -> "analysis" | Payload _ -> "payload"

let body_of = function
  | Analysis a -> Codec.analysis_to_json a
  | Payload j -> j

let value_of_entry (e : Store.entry) =
  match e.Store.kind with
  | "analysis" -> (
    match Codec.analysis_of_json e.Store.body with
    | Ok a -> Some (Analysis a)
    | Error _ -> None)
  | "payload" -> Some (Payload e.Store.body)
  | _ -> None

let default_capacity = 4096

(* Open-time compaction trigger: rewrite the log when at least 10% of
   its lines are unverifiable or at least half of its valid entries are
   stale duplicates.  Both ratios are cheap byproducts of the replay we
   do anyway, and both kinds of bloat only ever grow in an append-only
   log. *)
let needs_compaction ~entries ~distinct ~unreadable =
  let total = entries + unreadable in
  total > 0
  && (unreadable * 10 >= total || (entries - distinct) * 2 >= max 1 entries)

(* Single write path for the LRU: keeps [checks] an exact mirror of the
   resident key set, including under eviction. *)
let resident_add lru checks k v check =
  (match Lru.add_evicting lru k v with
  | None -> ()
  | Some evicted -> Hashtbl.remove checks evicted);
  Hashtbl.replace checks k check

let create ?(capacity = default_capacity) ?store_path ?(auto_compact = true)
    ?shard () =
  let lru = Lru.create ~capacity in
  let checks = Hashtbl.create 64 in
  let loaded, invalid, quarantined, store =
    match store_path with
    | None -> (0, 0, 0, None)
    | Some path ->
      let entries, unreadable = Store.load path in
      let distinct =
        let keys = Hashtbl.create 64 in
        List.iter (fun e -> Hashtbl.replace keys e.Store.key ()) entries;
        Hashtbl.length keys
      in
      let quarantined =
        if
          auto_compact
          && needs_compaction ~entries:(List.length entries) ~distinct
               ~unreadable
        then (Store.compact path).Store.quarantined
        else 0
      in
      (* Replay in append order: for a duplicated key the latest entry
         wins, matching what a reader of the log would reconstruct. *)
      let loaded, undecodable =
        List.fold_left
          (fun (ok, bad) e ->
            match value_of_entry e with
            | Some v ->
              resident_add lru checks e.Store.key v
                (Store.check_of e.Store.body);
              (ok + 1, bad)
            | None -> (ok, bad + 1))
          (0, 0) entries
      in
      (loaded, unreadable + undecodable, quarantined, Some (Store.open_append path))
  in
  { lru; checks; store; store_path; lock = Mutex.create (); shard; hits = 0;
    misses = 0; loaded; invalid; quarantined; closed = false }

let key ~fingerprint ~query =
  if query = "" then fingerprint else fingerprint ^ "/" ^ query

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let persist t k v =
  match t.store with
  | None -> ()
  | Some store ->
    Store.append store { Store.key = k; kind = kind_of v; body = body_of v }

let find t k =
  locked t (fun () ->
      match Lru.find t.lru k with
      | Some v ->
        t.hits <- t.hits + 1;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let insert t k v =
  locked t (fun () ->
      resident_add t.lru t.checks k v (Store.check_of (body_of v));
      persist t k v)

(* The thunk runs inside the lock: correctness first (a concurrent
   caller can never observe a missing entry being computed twice).  The
   server layer keeps its own in-flight table precisely so that long
   computations do not serialize behind this mutex. *)
let memo t k wrap unwrap compute =
  locked t (fun () ->
      match Option.bind (Lru.find t.lru k) unwrap with
      | Some v ->
        t.hits <- t.hits + 1;
        (v, true)
      | None ->
        t.misses <- t.misses + 1;
        let v = compute () in
        let wrapped = wrap v in
        resident_add t.lru t.checks k wrapped
          (Store.check_of (body_of wrapped));
        persist t k wrapped;
        (v, false))

let analysis t k compute =
  memo t k
    (fun a -> Analysis a)
    (function Analysis a -> Some a | Payload _ -> None)
    compute

let payload t k compute =
  memo t k
    (fun j -> Payload j)
    (function Payload j -> Some j | Analysis _ -> None)
    compute

(* --- digest view ------------------------------------------------------ *)

let digest_rollup t =
  locked t (fun () ->
      let per_bucket = Array.make Store.buckets [] in
      Hashtbl.iter
        (fun k c ->
          let b = Store.bucket_of_key k in
          per_bucket.(b) <- (k, c) :: per_bucket.(b))
        t.checks;
      let acc = ref [] in
      for b = Store.buckets - 1 downto 0 do
        if per_bucket.(b) <> [] then
          acc := (b, Store.bucket_digest per_bucket.(b)) :: !acc
      done;
      !acc)

let bucket_keys t bucket =
  locked t (fun () ->
      let pairs =
        Hashtbl.fold
          (fun k c acc ->
            if Store.bucket_of_key k = bucket then (k, c) :: acc else acc)
          t.checks []
      in
      List.sort compare pairs)

let pull t keys =
  locked t (fun () ->
      List.fold_left
        (fun (found, missing) k ->
          match Lru.find t.lru k with
          | Some v ->
            ( { Store.key = k; kind = kind_of v; body = body_of v } :: found,
              missing )
          | None -> (found, k :: missing))
        ([], []) keys
      |> fun (found, missing) -> (List.rev found, List.rev missing))

type stats = {
  shard : string option;
  hits : int;
  misses : int;
  length : int;
  capacity : int;
  evictions : int;
  loaded : int;
  invalid : int;
  quarantined : int;
  rejected : int;
}

let stats t =
  locked t (fun () ->
      {
        shard = t.shard;
        hits = t.hits;
        misses = t.misses;
        length = Lru.length t.lru;
        capacity = Lru.capacity t.lru;
        evictions = Lru.evictions t.lru;
        loaded = t.loaded;
        invalid = t.invalid;
        quarantined = t.quarantined;
        rejected =
          (match t.store_path with
          | None -> 0
          | Some path -> Store.rej_lines path);
      })

let stats_to_json (s : stats) =
  let shard_field =
    match s.shard with None -> [] | Some id -> [ ("shard", Sink.Str id) ]
  in
  Sink.Obj
    (shard_field
    @ [
        ("hits", Sink.Int s.hits);
        ("misses", Sink.Int s.misses);
        ("length", Sink.Int s.length);
        ("capacity", Sink.Int s.capacity);
        ("evictions", Sink.Int s.evictions);
        ("loaded", Sink.Int s.loaded);
        ("invalid", Sink.Int s.invalid);
        ("quarantined", Sink.Int s.quarantined);
        ("rejected", Sink.Int s.rejected);
      ])

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Option.iter Store.close t.store
      end)
