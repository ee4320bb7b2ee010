(* Clean fixture: lib/runtime/shm.ml is the one place an external may be
   declared. *)
type cell = { mutable v : int }

external load : cell -> int = "%atomic_load"
