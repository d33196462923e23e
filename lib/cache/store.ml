module Sink = Bi_engine.Sink

type entry = { key : string; kind : string; body : string; check : string }

(* The checksum covers the canonical rendering of the body, so a replay
   can verify an entry without knowing how to interpret it.  Bodies are
   built from Null/Bool/Int/Str/List/Obj only (no floats), for which
   [Sink.to_string] after [Sink.of_string] is byte-identical. *)
let check_of body = Fingerprint.digest_hex body
let entry ~key ~kind body = { key; kind; body; check = check_of body }

(* Digest view: keys are assigned to one of [buckets] buckets by the
   first byte of their MD5, so two shards can compare rollups in
   O(buckets) and fetch only the keys of differing buckets. *)
let buckets = 256
let bucket_of_key key = Char.code (Digest.string key).[0]

(* Canonical digest of one bucket's key→check map: md5 over the sorted
   "key:check" lines.  Sorting makes the rollup independent of insertion
   and recency order, so equal resident state ⇒ equal digest. *)
let bucket_digest pairs =
  let lines =
    List.sort compare (List.map (fun (k, c) -> k ^ ":" ^ c ^ "\n") pairs)
  in
  Fingerprint.digest_hex (String.concat "" lines)

(* The body's bytes are spliced in as they are: the line is the one
   [Sink.to_string] renders for the record with the body as a tree. *)
let entry_to_line e =
  String.concat ""
    [
      {|{"record":"entry","key":|}; Sink.quote e.key; {|,"kind":|};
      Sink.quote e.kind; {|,"check":|}; Sink.quote e.check; {|,"body":|};
      e.body; "}";
    ]

let entry_of_line line =
  match Sink.of_string line with
  | Error e -> Error e
  | Ok j -> (
    match
      ( Sink.member "record" j,
        Sink.member "key" j,
        Sink.member "kind" j,
        Sink.member "check" j,
        Sink.member "body" j )
    with
    | Some (Str "entry"), Some (Str key), Some (Str kind), Some (Str check), Some body
      ->
      let body = Sink.to_string body in
      if String.equal check (check_of body) then Ok { key; kind; body; check }
      else Error "checksum mismatch"
    | _ -> Error "not a store entry record")

(* Raw replay: every non-blank line classified as a verified entry or
   kept verbatim as an invalid line, in file order.  [load] is the
   entries-only view; [compact] needs both halves. *)
let load_classified path =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go ok bad =
          match input_line ic with
          | exception End_of_file -> (List.rev ok, List.rev bad)
          | line when String.trim line = "" -> go ok bad
          | line -> (
            match entry_of_line line with
            | Ok e -> go (e :: ok) bad
            | Error _ -> go ok (line :: bad))
        in
        go [] [])
  end

let load path =
  let entries, bad = load_classified path in
  (entries, List.length bad)

(* --- compaction ------------------------------------------------------- *)

type compaction = { kept : int; superseded : int; quarantined : int }

let rej_path path = path ^ ".rej"

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> go (line :: acc)
        in
        go [])
  end

let rej_lines path = List.length (read_lines (rej_path path))

(* Rewrite [path] keeping, for each key, only its last verified entry
   (in order of last occurrence, which is what replay reconstructs).
   Lines that fail to parse or verify are appended verbatim to the
   [.rej] sidecar — quarantined for post-mortems, never trusted, never
   recounted on the next open.  The new log is written to a temp file,
   fsynced and renamed over the original, so a crash mid-compaction
   leaves either the old log or the new one, both complete. *)
let compact path =
  let entries, bad = load_classified path in
  if entries = [] && bad = [] then { kept = 0; superseded = 0; quarantined = 0 }
  else begin
    let entries = Array.of_list entries in
    let last = Hashtbl.create 64 in
    Array.iteri (fun i e -> Hashtbl.replace last e.key i) entries;
    let keep = ref [] in
    for i = Array.length entries - 1 downto 0 do
      if Hashtbl.find last entries.(i).key = i then keep := entries.(i) :: !keep
    done;
    let kept = !keep in
    if bad <> [] then begin
      (* Quarantine dedupes: one sidecar copy per distinct line, however
         many compactions re-encounter it, so a repeatedly-compacted
         corrupt log cannot grow the sidecar without bound. *)
      let seen = Hashtbl.create 64 in
      let existing = read_lines (rej_path path) in
      List.iter (fun l -> Hashtbl.replace seen l ()) existing;
      let fresh =
        List.filter
          (fun l ->
            if Hashtbl.mem seen l then false
            else begin
              Hashtbl.replace seen l ();
              true
            end)
          bad
      in
      if fresh <> [] then begin
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
            (rej_path path)
        in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun line ->
                output_string oc line;
                output_char oc '\n')
              fresh;
            fsync_out oc)
      end
    end;
    let tmp = path ^ ".compact.tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (entry_to_line e);
            output_char oc '\n')
          kept;
        fsync_out oc);
    Sys.rename tmp path;
    {
      kept = List.length kept;
      superseded = Array.length entries - List.length kept;
      quarantined = List.length bad;
    }
  end

(* --- appending -------------------------------------------------------- *)

(* Fault-injection seam for the chaos harness: when set, every appended
   line passes through the transformer before hitting the disk.  Only
   [Bi_serve.Chaos] installs one; production paths never do. *)
let write_fault : (string -> string) option ref = ref None
let set_write_fault f = write_fault := f

type t = {
  path : string;
  channel : out_channel;
  lock : Mutex.t;
  mutable open_ : bool;
}

let open_append path =
  let channel =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  { path; channel; lock = Mutex.create (); open_ = true }

let path t = t.path

let append t entry =
  let line = entry_to_line entry in
  let line = match !write_fault with None -> line | Some f -> f line in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not t.open_ then invalid_arg "Store.append: store is closed";
      output_string t.channel line;
      output_char t.channel '\n';
      (* Flush per entry: an append-only log that survives crashes at
         line granularity (a torn final line is skipped on replay). *)
      flush t.channel)

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.open_ then begin
        t.open_ <- false;
        close_out t.channel
      end)
