(* Violating fixture: a compiler primitive declared outside Shm. *)
external load : int Atomic.t -> int = "%atomic_load" (* lint: expect external-decl *)
