(** Lossless float rendering for command lines and labels. *)

val to_string : float -> string
(** The shortest [%g]-style rendering that parses back to the same float:
    [%g] itself (6 significant digits) whenever that is exact, otherwise
    the fewest extra digits that are — so [0.9999999] renders as
    ["0.9999999"], not ["1"], and [1234567.] as ["1234567"], not
    ["1.23457e+06"].  Non-finite values render as [%g] does. *)
