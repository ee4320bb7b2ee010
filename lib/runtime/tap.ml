type access = Get | Set | Cas of bool | Faa

type hooks = {
  on_access : cpu:int -> label:string -> index:int -> access -> unit;
  on_vmm_load : cpu:int -> addr:int -> unit;
  on_vmm_store : cpu:int -> addr:int -> unit;
  on_vmm_alloc : cpu:int -> addr:int -> len:int -> unit;
  on_vmm_free : cpu:int -> addr:int -> len:int -> unit;
  on_run_boundary : unit -> unit;
}

let hooks = ref None

(* [active] duplicates the Some/None distinction as one mutable bool so the
   hot-path guard is a single load and compare (the Sink discipline). *)
let active = ref false

(* Per-CPU reentrant suppression depth; sized like [Sink.max_cpus]. *)
let max_cpus = 64

let suspended = Array.make max_cpus 0

let install h =
  hooks := h;
  Array.fill suspended 0 max_cpus 0;
  active := h <> None

let enabled () = !active
let cpu () = Sim_sched.tid ()

(* No-ops while disarmed, so the disarmed tap touches no state at all;
   arming happens outside simulated runs, never inside a bracket. *)
let suspend () = if !active then suspended.(cpu ()) <- suspended.(cpu ()) + 1
let resume () = if !active then suspended.(cpu ()) <- suspended.(cpu ()) - 1
let live () = !active && suspended.(cpu ()) = 0

let access ~label ~index kind =
  if live () then
    match !hooks with
    | Some h -> h.on_access ~cpu:(cpu ()) ~label ~index kind
    | None -> ()

let vmm_load ~addr =
  if live () then
    match !hooks with Some h -> h.on_vmm_load ~cpu:(cpu ()) ~addr | None -> ()

let vmm_store ~addr =
  if live () then
    match !hooks with Some h -> h.on_vmm_store ~cpu:(cpu ()) ~addr | None -> ()

let vmm_alloc ~addr ~len =
  if live () then
    match !hooks with
    | Some h -> h.on_vmm_alloc ~cpu:(cpu ()) ~addr ~len
    | None -> ()

let vmm_free ~addr ~len =
  if live () then
    match !hooks with
    | Some h -> h.on_vmm_free ~cpu:(cpu ()) ~addr ~len
    | None -> ()

let run_boundary () =
  if !active then
    match !hooks with Some h -> h.on_run_boundary () | None -> ()
