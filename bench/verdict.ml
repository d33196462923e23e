(* Every PASS/FAIL cell of the reproduction sections goes through
   [cell]; main exits nonzero once all requested sections have run if
   any of them failed, so a verdict is a gate, not a comment. *)

let failed = ref false

let cell ok =
  if not ok then failed := true;
  Bayesian_ignorance.Report.verdict ok
