(** Hygiene and determinism rules (AST-based, so comments and string
    literals can never trip them):

    - [obj-cast]: no use of the [Obj] module, anywhere.
    - [external-decl]: no [external] declaration outside
      [lib/runtime/shm.ml].
    - [stdlib-random]: no [Stdlib.Random] in lib/bin; randomness threads a
      seeded {!Tstm_util.Xrand} stream.
    - [printf-in-lib]: no [Printf.printf]/[print_endline]/[print_string]
      inside lib/.
    - [wallclock]: no [Sys.time]/[Unix.gettimeofday]/[Unix.time] in lib/
      outside [Tstm_obs.Monotonic] and [lib/exec].
    - [marshal-outside-exec]: [Marshal] only inside [lib/exec].
    - [catch-all-handler]: no [try ... with _ ->] in lib/.
    - [mli-coverage]: every lib [.ml] has an [.mli] ([*_intf.ml] and the
      allowlist exempt). *)

val rules : Rule.t list
