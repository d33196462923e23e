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

let matches t value =
  match (t, value) with
  | Exhaustive, Service.Analysis _ -> true
  | Exhaustive, Service.Payload _ -> false
  | (Certified | Correlated _), Service.Payload _ -> true
  | (Certified | Correlated _), Service.Analysis _ -> false

let response t ~fingerprint ~cached value =
  match (t, value) with
  | Exhaustive, Service.Analysis a ->
    Protocol.ok_analysis ~fingerprint ~cached a
  | Certified, Service.Payload p -> Protocol.ok_certified ~fingerprint ~cached p
  | Correlated concept, Service.Payload p ->
    Protocol.ok_correlated ~fingerprint ~cached ~concept p
  | _ -> invalid_arg "Tier.response: the value belongs to another tier"

let front_cacheable = function
  | Known Exhaustive -> true
  | Known (Certified | Correlated _) | Auto -> false

let front_body answer = Sink.member "analysis" answer

let front_hit ~fingerprint body =
  Protocol.ok_answer ~fingerprint ~cached:true [ ("analysis", body) ]
