(* Deterministic fault-injection plan.

   The plan is process-global, like [Tstm_obs.Sink]: the simulator scheduler
   guards [jitter] on [enabled ()] and the STMs reach [preempt] only through
   their probe, behind the shared gate, so an inactive plan costs one
   branch.  All decisions
   are drawn from one SplitMix64 stream seeded by [activate ~seed], and the
   simulator is single-threaded under the hood, so a (seed, config, limit)
   triple replays bit-identically.

   Only *fired* injections consume the stream and count towards [limit]; a
   run capped at [limit = injected()] of a previous run therefore reproduces
   that run exactly, which is what the shrinker in [Tstm_harness.Stress]
   relies on. *)

module X = Tstm_util.Xrand

type config = {
  jitter_pct : float;
  jitter_max : int;
  preempt_pct : float;
  preempt_max : int;
}

let default = { jitter_pct = 5.0; jitter_max = 256; preempt_pct = 20.0; preempt_max = 4096 }

let validate cfg =
  if cfg.jitter_pct < 0.0 || cfg.jitter_pct > 100.0 then
    invalid_arg "Chaos: jitter_pct outside [0, 100]";
  if cfg.preempt_pct < 0.0 || cfg.preempt_pct > 100.0 then
    invalid_arg "Chaos: preempt_pct outside [0, 100]";
  if cfg.jitter_max < 1 then invalid_arg "Chaos: jitter_max < 1";
  if cfg.preempt_max < 1 then invalid_arg "Chaos: preempt_max < 1"

type plan = {
  rng : X.t;
  cfg : config;
  limit : int;
  mutable fired : int;
  mutable decisions : int;
}

let state : plan option ref = ref None
let on = ref false
let enabled () = !on

let activate ?(config = default) ?limit ~seed () =
  validate config;
  let limit = match limit with None -> max_int | Some l -> max 0 l in
  state :=
    Some
      {
        rng = X.create seed;
        cfg = config;
        limit;
        fired = 0;
        decisions = 0;
      };
  on := true;
  Tstm_util.Gate.set Tstm_util.Gate.Chaos true

let deactivate () =
  on := false;
  state := None;
  Tstm_util.Gate.set Tstm_util.Gate.Chaos false

let with_plan ?config ?limit ~seed f =
  activate ?config ?limit ~seed ();
  Fun.protect ~finally:deactivate f

(* One injection decision.  Past the site limit we stop touching the RNG
   entirely: no further site can fire, and runs with different limits are
   allowed to diverge (the schedule already has). *)
let fire p pct max_cycles =
  p.decisions <- p.decisions + 1;
  if p.fired >= p.limit then 0
  else if X.below_percent p.rng pct then begin
    p.fired <- p.fired + 1;
    1 + X.int p.rng max_cycles
  end
  else 0

let jitter () =
  match !state with
  | Some p when !on -> fire p p.cfg.jitter_pct p.cfg.jitter_max
  | _ -> 0

let preempt () =
  match !state with
  | Some p when !on -> fire p p.cfg.preempt_pct p.cfg.preempt_max
  | _ -> 0

let injected () = match !state with Some p -> p.fired | None -> 0
let decisions () = match !state with Some p -> p.decisions | None -> 0

(* Deliberate protocol bugs, used to prove the checker has teeth.  Kept
   independent of the plan so a bug can be armed with or without schedule
   perturbation. *)

type bug = Skip_extension | Skip_validation

let bug_name = function
  | Skip_extension -> "skip-extension"
  | Skip_validation -> "skip-validation"

let bugged = ref false
let bug : bug option ref = ref None

let set_bug b =
  bug := b;
  bugged := b <> None

let bug_active b = !bugged && !bug = Some b

let with_bug b f =
  set_bug b;
  Fun.protect ~finally:(fun () -> set_bug None) f
