module Sink = Bi_engine.Sink
module Store = Bi_cache.Store

(* A hinted-handoff log: writes that failed to reach an owner, parked
   until the owner comes back.  Durable via the Store line format — one
   ["hint"] entry per (member, fingerprint), superseded by later writes
   to the same key and cancelled by a ["hint-drop"] tombstone — so a
   router restart replays exactly the outstanding hints. *)

type hint = {
  member : string;
  fingerprint : string;
  kind : string;
  body : string;
}

type t = {
  lock : Mutex.t;
  capacity : int;
  tbl : (string, hint) Hashtbl.t;  (* log key -> newest hint *)
  mutable order : string list;  (* log keys, oldest first *)
  mutable store : Store.t option;
  path : string option;
  (* Appends since the last rewrite; when they dwarf the live set the
     log is rewritten in place so it cannot grow without bound. *)
  mutable churn : int;
}

(* Member names never contain '|' (socket paths, ports, host:port), so
   the pair key is unambiguous — and stable, which is what lets a
   re-recorded hint supersede its predecessor on replay. *)
let log_key ~member ~fingerprint = member ^ "|" ^ fingerprint

let hint_to_entry h =
  Store.entry
    ~key:(log_key ~member:h.member ~fingerprint:h.fingerprint)
    ~kind:"hint"
    (String.concat ""
       [ {|{"member":|}; Sink.quote h.member; {|,"fingerprint":|};
         Sink.quote h.fingerprint; {|,"kind":|}; Sink.quote h.kind;
         {|,"body":|}; h.body; "}" ])

let drop_entry key = Store.entry ~key ~kind:"hint-drop" "null"

let hint_of_entry (e : Store.entry) =
  match Sink.of_string e.Store.body with
  | Error _ -> None
  | Ok record -> (
    match
      ( Sink.member "member" record,
        Sink.member "fingerprint" record,
        Sink.member "kind" record,
        Sink.member "body" record )
    with
    | Some (Sink.Str member), Some (Sink.Str fingerprint), Some (Sink.Str kind),
      Some body ->
      Some { member; fingerprint; kind; body = Sink.to_string body }
    | _ -> None)

let append_opt store entry =
  match store with None -> () | Some s -> Store.append s entry

(* Replay in append order: a later hint for the same (member, key)
   supersedes, a tombstone cancels. *)
let replay path tbl =
  let entries, _invalid = Store.load path in
  let order = ref [] in
  List.iter
    (fun (e : Store.entry) ->
      match e.Store.kind with
      | "hint" -> (
        match hint_of_entry e with
        | Some h ->
          if not (Hashtbl.mem tbl e.Store.key) then
            order := e.Store.key :: !order;
          Hashtbl.replace tbl e.Store.key h
        | None -> ())
      | "hint-drop" ->
        if Hashtbl.mem tbl e.Store.key then begin
          Hashtbl.remove tbl e.Store.key;
          order := List.filter (fun k -> k <> e.Store.key) !order
        end
      | _ -> ())
    entries;
  (List.rev !order, List.length entries)

(* Rewrite the log to exactly the live hints (temp + fsync + rename,
   same crash contract as [Store.compact]).  Caller holds the lock and
   has closed the store. *)
let rewrite path tbl order =
  let tmp = path ^ ".hints.tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun k ->
          match Hashtbl.find_opt tbl k with
          | Some h ->
            output_string oc (Store.entry_to_line (hint_to_entry h));
            output_char oc '\n'
          | None -> ())
        order;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

let default_capacity = 512

let create ?(capacity = default_capacity) ?path () =
  if capacity < 1 then invalid_arg "Hints.create: capacity must be positive";
  let tbl = Hashtbl.create 64 in
  let order, store =
    match path with
    | None -> ([], None)
    | Some p ->
      let order, lines = replay p tbl in
      if lines > (2 * Hashtbl.length tbl) + 64 then rewrite p tbl order;
      (order, Some (Store.open_append p))
  in
  { lock = Mutex.create (); capacity; tbl; order; store; path; churn = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let maybe_rewrite t =
  match (t.path, t.store) with
  | Some p, Some s when t.churn > (2 * Hashtbl.length t.tbl) + 256 ->
    Store.close s;
    rewrite p t.tbl t.order;
    t.store <- Some (Store.open_append p);
    t.churn <- 0
  | _ -> ()

(* Returns how many older hints were evicted to make room (0 or 1). *)
let record t ~member ~fingerprint ~kind body =
  locked t (fun () ->
      let h = { member; fingerprint; kind; body } in
      let key = log_key ~member ~fingerprint in
      let evicted =
        if Hashtbl.mem t.tbl key then 0
        else if Hashtbl.length t.tbl >= t.capacity then begin
          match t.order with
          | [] -> 0
          | oldest :: rest ->
            Hashtbl.remove t.tbl oldest;
            t.order <- rest;
            append_opt t.store (drop_entry oldest);
            t.churn <- t.churn + 1;
            1
        end
        else 0
      in
      if not (Hashtbl.mem t.tbl key) then t.order <- t.order @ [ key ];
      Hashtbl.replace t.tbl key h;
      append_opt t.store (hint_to_entry h);
      t.churn <- t.churn + 1;
      maybe_rewrite t;
      evicted)

(* Removes and returns every hint for [member], oldest first.  The
   caller re-records any it fails to deliver. *)
let take t member =
  locked t (fun () ->
      let mine, others =
        List.partition
          (fun k ->
            match Hashtbl.find_opt t.tbl k with
            | Some h -> h.member = member
            | None -> false)
          t.order
      in
      let hints =
        List.filter_map
          (fun k ->
            let h = Hashtbl.find_opt t.tbl k in
            Hashtbl.remove t.tbl k;
            append_opt t.store (drop_entry k);
            t.churn <- t.churn + 1;
            h)
          mine
      in
      t.order <- others;
      maybe_rewrite t;
      hints)

let pending t = locked t (fun () -> Hashtbl.length t.tbl)

let members t =
  locked t (fun () ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun k ->
          match Hashtbl.find_opt t.tbl k with
          | Some h when not (Hashtbl.mem seen h.member) ->
            Hashtbl.replace seen h.member ();
            Some h.member
          | _ -> None)
        t.order)

let close t =
  locked t (fun () ->
      match t.store with
      | Some s ->
        Store.close s;
        t.store <- None
      | None -> ())
