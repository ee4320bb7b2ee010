val make : kind:Tstm_runtime.Shm.kind -> int -> Tstm_runtime.Shm.t
