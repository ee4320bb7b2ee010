(** The one JSON string escape, shared by the JSON printer of the
    observability layer and the linter's JSON report. *)

val escape : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string (no surrounding quotes):
    quote, backslash and every control character below 0x20 escaped. *)
