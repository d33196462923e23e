(** Human-readable reporting of ignorance measures and bench rows. *)

open Bi_num

val table : header:string list -> string list list -> string
(** Renders an aligned plain-text table. *)

val measures_rows : Bi_bayes.Measures.report -> string list list
(** Six labelled rows (quantity, exact, float) for a measures report. *)

val verdict : bool -> string
(** ["PASS"] / ["FAIL"]. *)

val float_cell : float -> string
val rat_cell : Rat.t -> string
val ext_cell : Extended.t -> string
val ext_opt_cell : Extended.t option -> string
val ratio_cell : Rat.t option -> string
