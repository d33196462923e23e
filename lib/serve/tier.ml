module Sink = Bi_engine.Sink
module Service = Bi_cache.Service
module Fingerprint = Bi_cache.Fingerprint
module Bncs = Bi_ncs.Bayesian_ncs
module Mode = Bi_certify.Mode
module Solve = Bi_certify.Solve
module Concept = Bi_correlated.Concept
module Correlated = Bi_correlated.Correlated

type t = Exhaustive | Certified | Correlated of Concept.t
type request = Known of t | Auto

let of_query ~mode ~concept =
  match (concept, mode) with
  | (Concept.Cce | Concept.Comm), _ -> Known (Correlated concept)
  | Concept.Nash, Mode.Exhaustive -> Known Exhaustive
  | Concept.Nash, Mode.Certified -> Known Certified
  | Concept.Nash, Mode.Auto -> Auto

let resolve request game =
  match request with
  | Known t -> t
  | Auto -> (
    match
      Mode.resolve ~valid_profiles:(Bncs.valid_profile_count game) Mode.Auto
    with
    | Mode.Certified -> Certified
    | Mode.Exhaustive | Mode.Auto -> Exhaustive)

let key t fingerprint =
  match t with
  | Exhaustive -> fingerprint
  | Certified ->
    Fingerprint.with_mode fingerprint ~mode:(Mode.cache_tag Mode.Certified)
  | Correlated concept ->
    Fingerprint.with_concept fingerprint ~concept:(Concept.cache_tag concept)

let routing_key request fingerprint =
  match request with
  | Known t -> key t fingerprint
  | Auto -> key Certified fingerprint

(* With [~verify], a rejected certificate is an [Error] led by [label]. *)
let verified ~verify label check =
  if verify then Result.map_error (( ^ ) label) (check ()) else Ok ()

let solve ?pool ?budget ~verify t game =
  match t with
  | Exhaustive -> Ok (Service.Analysis (Bncs.analyze ?pool ?budget game))
  | Certified ->
    let cert = Solve.certify ?pool ?budget game in
    Result.map
      (fun () -> Service.Payload (Solve.to_json cert))
      (verified ~verify "certificate rejected: " (fun () ->
           Solve.check game cert))
  | Correlated concept ->
    let report = Correlated.analyze ?budget ~concept game in
    Result.map
      (fun () -> Service.Payload (Correlated.to_json report))
      (verified ~verify "correlated certificate rejected: " (fun () ->
           Correlated.check game report))

let kind = function Exhaustive -> "analysis" | Certified | Correlated _ -> "payload"

(* The members between the shared header and the body, as
   [Protocol.ok_analysis], [ok_certified] and [ok_correlated] render
   them. *)
let analysis_member = {|,"analysis":|}

let certified_member =
  {|,"mode":|} ^ Sink.quote (Mode.to_string Mode.Certified) ^ {|,"certified":|}

let correlated_member concept =
  {|,"concept":|} ^ Sink.quote (Concept.to_string concept) ^ {|,"correlated":|}

let response t ~fingerprint ~cached body =
  String.concat ""
    [
      {|{"ok":true,"fingerprint":|};
      Sink.quote fingerprint;
      (if cached then {|,"cached":true|} else {|,"cached":false|});
      (match t with
      | Exhaustive -> analysis_member
      | Certified -> certified_member
      | Correlated concept -> correlated_member concept);
      body;
      "}";
    ]

let front_cacheable = function
  | Known Exhaustive -> true
  | Known (Certified | Correlated _) | Auto -> false
