(* The real branches must stay small enough to inline into every barrier,
   so the simulator's accesses and charges are [@inline never] functions:
   with them inlined, [get] itself stopped inlining (DESIGN.md §4k). *)

type sim = {
  data : int array;
  cache : Cache_model.t;
  p : Cache_model.params;
  mutable label : string;
}

type t = Real of int Atomic.t array | Sim of sim
type kind = Simulated | Domains

(* The simulator's cost model is process-global; each simulated array
   reads it when it is made. *)
let current_params = ref Cache_model.default
let glob = ref (Cache_model.create_global Cache_model.default)

let configure p =
  Cache_model.validate p;
  current_params := p;
  glob := Cache_model.create_global p

let params () = !current_params
let cold_caches () = Cache_model.reset_tags !glob

let make kind len init =
  match kind with
  | Domains -> Real (Array.init len (fun _ -> Atomic.make init))
  | Simulated ->
      Sim
        { data = Array.make len init; cache = Cache_model.create !glob len;
          p = !current_params; label = "" }

(* Each simulated access first charges its base cost (a preemption point, so
   another fiber may interleave here), then executes atomically, adding the
   cache-contention penalty discovered at execution time.  The [Tap]
   emission sits inside the same atomic window as the access itself (no
   charge separates them), so a tap consumer observes accesses in exactly
   the order they execute; emission never charges cycles, keeping tapped
   runs bit-identical to untapped ones.  Outside a run the access is free. *)

let[@inline never] sim_get a i =
  if Sim_sched.inside () then begin
    Sim_sched.charge a.p.Cache_model.read_hit;
    let cost = Cache_model.read_cost a.cache ~cpu:(Sim_sched.tid ()) ~index:i in
    Sim_sched.charge_noyield (cost - a.p.Cache_model.read_hit)
  end;
  let v = a.data.(i) in
  if Tap.enabled () then Tap.access ~label:a.label ~index:i Tap.Get;
  v

let[@inline never] sim_set a i v =
  if Sim_sched.inside () then begin
    Sim_sched.charge a.p.Cache_model.write_hit;
    let cost = Cache_model.write_cost a.cache ~cpu:(Sim_sched.tid ()) ~index:i in
    Sim_sched.charge_noyield (cost - a.p.Cache_model.write_hit)
  end;
  a.data.(i) <- v;
  if Tap.enabled () then Tap.access ~label:a.label ~index:i Tap.Set

let sim_rmw_charge a i =
  if Sim_sched.inside () then begin
    Sim_sched.charge (a.p.Cache_model.write_hit + a.p.Cache_model.cas_extra);
    let cost = Cache_model.write_cost a.cache ~cpu:(Sim_sched.tid ()) ~index:i in
    Sim_sched.charge_noyield (cost - a.p.Cache_model.write_hit)
  end

let[@inline never] sim_cas a i expected desired =
  sim_rmw_charge a i;
  let ok =
    if a.data.(i) = expected then begin
      a.data.(i) <- desired;
      true
    end
    else false
  in
  if Tap.enabled () then Tap.access ~label:a.label ~index:i (Tap.Cas ok);
  ok

let[@inline never] sim_fetch_add a i d =
  sim_rmw_charge a i;
  let old = a.data.(i) in
  a.data.(i) <- old + d;
  if Tap.enabled () then Tap.access ~label:a.label ~index:i Tap.Faa;
  old

let get t i = match t with Real a -> Atomic.get a.(i) | Sim a -> sim_get a i

let set t i v =
  match t with Real a -> Atomic.set a.(i) v | Sim a -> sim_set a i v

let cas t i expected desired =
  match t with
  | Real a -> Atomic.compare_and_set a.(i) expected desired
  | Sim a -> sim_cas a i expected desired

let fetch_add t i d =
  match t with
  | Real a -> Atomic.fetch_and_add a.(i) d
  | Sim a -> sim_fetch_add a i d

let length = function Real a -> Array.length a | Sim a -> Array.length a.data

let label t l =
  match t with
  | Real _ -> ()
  | Sim a ->
      a.label <- l;
      Cache_model.set_label a.cache l

(* A simulated instance stamps virtual time even when called outside a run
   (where it reads 0): asking [Sim_sched.inside] instead would stamp
   wall-clock time into simulated traces set up before the run. *)
let now_cycles = function
  | Sim _ -> Sim_sched.now_cycles ()
  | Real _ -> Tstm_obs.Monotonic.now_ns ()

(* Threads and costs: a simulator fiber is recognised by [Sim_sched.inside];
   anything else is a real domain (or the orchestrating thread outside any
   run), whose costs are its own and whose id lives in a domain-local key. *)

let tid_key = Domain.DLS.new_key (fun () -> 0)
let set_real_tid i = Domain.DLS.set tid_key i

let tid () =
  if Sim_sched.inside () then Sim_sched.tid () else Domain.DLS.get tid_key

let is_simulated = Sim_sched.inside

let[@inline never] sim_charge c = Sim_sched.charge c
let[@inline never] sim_charge_local c = Sim_sched.charge_noyield c
let charge c = if Sim_sched.inside () then sim_charge c
let charge_local c = if Sim_sched.inside () then sim_charge_local c

(* A blocked spinner must advance virtual time or the min-time scheduler
   would never run anyone else. *)
let yield () = if Sim_sched.inside () then sim_charge 64 else Domain.cpu_relax ()
