(** Minimal JSON values, printer and parser.

    Carries the machine-readable exports ({!Bench} snapshots,
    [Tm_stats.to_json]) without growing a dependency: the repo's lint bars
    external JSON libraries, so the ~200 lines live here.  The printer is
    deterministic — object members print in insertion order, arrays in
    element order — so two identical snapshots are byte-identical files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a byte offset and reason. *)

val escape : Buffer.t -> string -> unit
(** {!Tstm_util.Json_string.escape}: append [s] as the body of a JSON
    string (no surrounding quotes). *)

val to_string : t -> string
(** Pretty-printed (2-space indent), newline-terminated, deterministic. *)

val of_string : string -> t
(** Parse; raises {!Parse_error} on malformed input, including trailing
    garbage, a raw control character below 0x20 inside a string and a
    number outside JSON's grammar (["1."], ["-.5"], ["2e"]). *)

val of_string_opt : string -> t option
(** [None] on any parse error. *)

(** {1 Accessors} — all total, [None]/[Some] style. *)

val member : string -> t -> t option
(** [member k (Obj ms)] looks up [k]; [None] on non-objects. *)

val to_int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> float option
(** Accepts [Float] and [Int]. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
