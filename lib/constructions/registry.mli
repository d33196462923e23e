(** Name-indexed access to the paper's game families.

    The single lookup point shared by the [bi] CLI and the analysis
    server, so both agree on construction names, size-parameter
    semantics, and error reporting. *)

val names : string list
(** The recognized construction names. *)

val max_k : int
(** The largest size parameter the analysis service accepts (32); the
    wire protocol rejects anything outside [[1, max_k]]. *)

val describe : string
(** One-line human summary of the names and their size parameters. *)

val build : string -> int -> (Bi_ncs.Bayesian_ncs.t, string) result
(** [build name k] constructs the named game family member at size [k].
    [Error] on an unknown name or a [k] the family rejects. *)
