module Sink = Bi_engine.Sink
module Bncs = Bi_ncs.Bayesian_ncs

type value =
  | Analysis of Bncs.analysis
  | Payload of Sink.json

(* Each resident entry is its kind, its body rendered once at insert and
   that rendering's check: a hit, the store line, the digest view and
   [pull] all reuse the same bytes. *)
type t = {
  lru : Store.entry Lru.t;
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
  | Analysis a -> Sink.to_string (Codec.analysis_to_json a)
  | Payload j -> Sink.to_string j

let entry_of key v = Store.entry ~key ~kind:(kind_of v) (body_of v)

let decode (e : Store.entry) =
  match e.Store.kind with
  | "analysis" -> (
    match Result.bind (Sink.of_string e.Store.body) Codec.analysis_of_json with
    | Ok a -> Some (Analysis a)
    | Error _ -> None)
  | "payload" -> Result.to_option (Sink.of_string e.Store.body) |> Option.map (fun j -> Payload j)
  | _ -> None

(* Every resident body was rendered from a value, or replayed and
   checked by [resident_of_stored], so it decodes. *)
let value_of e =
  match decode e with
  | Some v -> v
  | None -> invalid_arg "Service: a resident entry does not decode"

(* A replayed entry as the cache keeps it: a payload as stored; an
   analysis only when it decodes, and then in its canonical encoding,
   which is what a hit answers with. *)
let resident_of_stored (e : Store.entry) =
  match e.Store.kind with
  | "payload" -> Some e
  | "analysis" -> Option.map (entry_of e.Store.key) (decode e)
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

let create ?(capacity = default_capacity) ?store_path ?(auto_compact = true)
    ?shard () =
  let lru = Lru.create ~capacity in
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
            match resident_of_stored e with
            | Some e ->
              Lru.add lru e.Store.key e;
              (ok + 1, bad)
            | None -> (ok, bad + 1))
          (0, 0) entries
      in
      (loaded, unreadable + undecodable, quarantined, Some (Store.open_append path))
  in
  { lru; store; store_path; lock = Mutex.create (); shard; hits = 0;
    misses = 0; loaded; invalid; quarantined; closed = false }

let key ~fingerprint ~query =
  if query = "" then fingerprint else fingerprint ^ "/" ^ query

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let persist t e = Option.iter (fun store -> Store.append store e) t.store

(* The hit path: neither [Lru.find] nor the counters can raise, so the
   lock needs no exception handler. *)
let lookup t k =
  Mutex.lock t.lock;
  let found = Lru.find t.lru k in
  (match found with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.lock;
  found

let find t k = Option.map value_of (lookup t k)

(* Rendered and checked before the lock is taken. *)
let add t k v =
  let e = entry_of k v in
  locked t (fun () ->
      Lru.add t.lru k e;
      persist t e);
  e

let insert t k v = ignore (add t k v)

(* The thunk runs inside the lock: correctness first (a concurrent
   caller can never observe a missing entry being computed twice).  The
   server layer keeps its own in-flight table precisely so that long
   computations do not serialize behind this mutex. *)
let memo t k wrap unwrap compute =
  locked t (fun () ->
      match Option.bind (Lru.find t.lru k) (fun e -> unwrap (value_of e)) with
      | Some v ->
        t.hits <- t.hits + 1;
        (v, true)
      | None ->
        t.misses <- t.misses + 1;
        let v = compute () in
        let e = entry_of k (wrap v) in
        Lru.add t.lru k e;
        persist t e;
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
      Lru.fold
        (fun () k (e : Store.entry) ->
          let b = Store.bucket_of_key k in
          per_bucket.(b) <- (k, e.Store.check) :: per_bucket.(b))
        () t.lru;
      let acc = ref [] in
      for b = Store.buckets - 1 downto 0 do
        if per_bucket.(b) <> [] then
          acc := (b, Store.bucket_digest per_bucket.(b)) :: !acc
      done;
      !acc)

let bucket_keys t bucket =
  locked t (fun () ->
      let pairs =
        Lru.fold
          (fun acc k (e : Store.entry) ->
            if Store.bucket_of_key k = bucket then (k, e.Store.check) :: acc
            else acc)
          [] t.lru
      in
      List.sort compare pairs)

let pull t keys =
  locked t (fun () ->
      List.fold_left
        (fun (found, missing) k ->
          match Lru.find t.lru k with
          | Some e -> (e :: found, missing)
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
