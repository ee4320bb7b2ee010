(* The perturbation plan; plan.mli describes its two samplers and their
   replay discipline.  Past the limit the stream sampler stops touching
   its RNG: no further decision can fire, and runs with different limits
   may diverge (the schedule already has). *)

module X = Tstm_util.Xrand
module Bitops = Tstm_util.Bitops
module Mono = Tstm_obs.Monotonic

type point =
  | Charge
  | Tx_begin
  | Lock_cas
  | Lock_acquired
  | Clock_sample
  | Clock_inc
  | Write_back
  | Clock_read
  | Commit
  | Abort
  | Alloc

let point_name = function
  | Charge -> "charge"
  | Tx_begin -> "tx-begin"
  | Lock_cas -> "lock-cas"
  | Lock_acquired -> "lock-acquired"
  | Clock_sample -> "clock-sample"
  | Clock_inc -> "clock-inc"
  | Write_back -> "write-back"
  | Clock_read -> "clock-read"
  | Commit -> "commit"
  | Abort -> "abort"
  | Alloc -> "alloc"

type decision = Proceed | Delay of int | Crash | Hang of int | Oom

type sim = {
  jitter_pct : float;
  jitter_max : int;
  preempt_pct : float;
  preempt_max : int;
}

type real = {
  crash_pct : float;
  hang_pct : float;
  hang_us : int;
  oom_pct : float;
}

type config = Sim of sim | Real of real

let sim_default =
  { jitter_pct = 5.0; jitter_max = 256; preempt_pct = 20.0; preempt_max = 4096 }

let real_default =
  { crash_pct = 0.5; hang_pct = 0.2; hang_us = 2_000; oom_pct = 1.0 }

exception Injected_crash of { tid : int; point : string }

let () =
  Printexc.register_printer (function
    | Injected_crash { tid; point } ->
        Some
          (Printf.sprintf "injected worker crash (tid %d, %s point)" tid point)
    | _ -> None)

let validate config =
  let pct sampler name v =
    if v < 0.0 || v > 100.0 then
      invalid_arg (Printf.sprintf "%s: %s outside [0, 100]" sampler name)
  in
  match config with
  | Sim s ->
      pct "Chaos" "jitter_pct" s.jitter_pct;
      pct "Chaos" "preempt_pct" s.preempt_pct;
      if s.jitter_max < 1 then invalid_arg "Chaos: jitter_max < 1";
      if s.preempt_max < 1 then invalid_arg "Chaos: preempt_max < 1"
  | Real r ->
      pct "Fault" "crash_pct" r.crash_pct;
      pct "Fault" "hang_pct" r.hang_pct;
      pct "Fault" "oom_pct" r.oom_pct;
      if r.crash_pct +. r.hang_pct > 100.0 then
        invalid_arg "Fault: crash_pct + hang_pct > 100";
      if r.hang_us < 1 then invalid_arg "Fault: hang_us < 1"

(* Matches the STMs' max_threads ceiling (TinySTM's lock encoding caps
   tids at 127) and [Watchdog.max_cpus]. *)
let max_tids = 128
let slot tid = tid land (max_tids - 1)

(* Fired counts per decision kind, in summary order. *)
let kinds = [| "crash"; "hang"; "oom"; "delay" |]

let kind_index = function
  | Crash -> 0
  | Hang _ -> 1
  | Oom -> 2
  | Delay _ | Proceed (* never fires *) -> 3

type plan = {
  seed : int;
  config : config;
  rng : X.t;  (* the [Sim] stream *)
  limit : int;
  fired : int Atomic.t;
  decisions : int Atomic.t array;  (* per tid: the [Real] hash index *)
  fired_kind : int Atomic.t array;
}

let state : plan option ref = ref None
let on = ref false
let enabled () = !on

(* Per-tid suspension depth of the [Real] sampler: it answers [Proceed]
   while the depth is positive.  A crash in a serial-irrevocable run would
   leave direct writes half-applied, and an injected allocation failure
   there could not be rolled back. *)
let masks = Array.init max_tids (fun _ -> Atomic.make 0)

(* Per-tid heartbeat: monotonic nanoseconds of the last [Real]
   consultation (or explicit [tick]).  Independent of the armed plan so
   the pool monitor can read stale beats even while a worker is
   mid-hang. *)
let ticks = Array.init max_tids (fun _ -> Atomic.make (-1))

let tick ~tid = Atomic.set ticks.(slot tid) (Mono.now_ns ())
let last_tick ~tid = Atomic.get ticks.(slot tid)
let clear_ticks () = Array.iter (fun t -> Atomic.set t (-1)) ticks
let is_masked ~tid = Atomic.get masks.(slot tid) > 0

(* The unmask never drops the depth below zero: [activate] may have reset
   it inside a masked region. *)
let masked ~tid f =
  let m = masks.(slot tid) in
  ignore (Atomic.fetch_and_add m 1);
  let unmask () =
    if Atomic.fetch_and_add m (-1) <= 0 then ignore (Atomic.fetch_and_add m 1)
  in
  Fun.protect ~finally:unmask f

let activate ~config ?limit ~seed () =
  validate config;
  let limit = match limit with None -> max_int | Some l -> max 0 l in
  Array.iter (fun m -> Atomic.set m 0) masks;
  clear_ticks ();
  state :=
    Some
      {
        seed;
        config;
        rng = X.create seed;
        limit;
        fired = Atomic.make 0;
        decisions = Array.init max_tids (fun _ -> Atomic.make 0);
        fired_kind = Array.map (fun _ -> Atomic.make 0) kinds;
      };
  on := true;
  Tstm_util.Gate.set Tstm_util.Gate.Plan true

let deactivate () =
  on := false;
  state := None;
  Tstm_util.Gate.set Tstm_util.Gate.Plan false

let with_plan ~config ?limit ~seed f =
  activate ~config ?limit ~seed ();
  Fun.protect ~finally:deactivate f

(* Claim one fired slot, or refuse once the cap is reached.  The CAS loop
   makes the cap exact under concurrent claims. *)
let rec claim p =
  let f = Atomic.get p.fired in
  if f >= p.limit then false
  else if Atomic.compare_and_set p.fired f (f + 1) then true
  else claim p

let fire p d =
  ignore (Atomic.fetch_and_add p.fired_kind.(kind_index d) 1);
  d

(* Thread [tid]'s next decision index. *)
let next p ~tid = Atomic.fetch_and_add p.decisions.(slot tid) 1

(* The [Sim] sampler: one stream draw, then the delay length. *)
let stream p ~tid pct max_cycles =
  ignore (next p ~tid);
  if Atomic.get p.fired < p.limit && X.below_percent p.rng pct && claim p then
    fire p (Delay (1 + X.int p.rng max_cycles))
  else Proceed

(* The [Real] sampler: thread [tid]'s [idx]-th decision.  Two rounds of
   the Stafford mix give independent-looking streams per tid. *)
let hash p ~tid =
  tick ~tid;
  let idx = next p ~tid in
  Bitops.mix (Bitops.mix (p.seed + ((tid + 1) * 1_000_003)) lxor idx)

(* The hash as a percentage in [0, 100). *)
let pct h = float_of_int ((h lsr 13) land 0xFFFFF) /. 1_048_576.0 *. 100.0

let real p r point ~tid =
  match point with
  | Alloc when is_masked ~tid -> Proceed
  | _ when is_masked ~tid ->
      tick ~tid;
      Proceed
  | Alloc ->
      if pct (hash p ~tid) < r.oom_pct && claim p then fire p Oom else Proceed
  | _ ->
      let h = hash p ~tid in
      let u = pct h in
      if u < r.crash_pct then if claim p then fire p Crash else Proceed
      else if u < r.crash_pct +. r.hang_pct then
        if claim p then
          let us = 1 + (((h lsr 33) land 0xFFFF) mod r.hang_us) in
          fire p (Hang (us * 1_000))
        else Proceed
      else Proceed

let at point ~tid =
  match !state with
  | None -> Proceed
  | Some p -> (
      match (p.config, point) with
      | Sim s, Charge -> stream p ~tid s.jitter_pct s.jitter_max
      | ( Sim s,
          ( Tx_begin | Lock_cas | Lock_acquired | Clock_sample | Clock_inc
          | Write_back | Abort ) ) ->
          stream p ~tid s.preempt_pct s.preempt_max
      | Real r, (Clock_read | Commit | Abort | Alloc) -> real p r point ~tid
      | _ -> Proceed)

(* A bounded stall.  Deliberately does NOT tick the heartbeat: the whole
   point is that the worker's beat goes stale so the pool monitor can see
   it.  Spins rather than sleeps so a hang also holds on to its core the
   way a livelocked worker would. *)
let hang ~ns =
  let deadline = Mono.now_ns () + ns in
  while Mono.now_ns () < deadline do
    Domain.cpu_relax ()
  done

let fired () = match !state with Some p -> Atomic.get p.fired | None -> 0

let decisions () =
  match !state with
  | Some p -> Array.fold_left (fun a d -> a + Atomic.get d) 0 p.decisions
  | None -> 0

let summary () =
  match !state with
  | None -> "fault: inactive"
  | Some p ->
      let b = Buffer.create 64 in
      Printf.bprintf b "fault: seed=%d fired=%d/%s decisions=%d" p.seed
        (Atomic.get p.fired)
        (if p.limit = max_int then "inf" else string_of_int p.limit)
        (decisions ());
      Array.iteri
        (fun i name ->
          let n = Atomic.get p.fired_kind.(i) in
          if n > 0 then Printf.bprintf b " %s=%d" name n)
        kinds;
      Buffer.contents b

(* Deliberate protocol bugs, used to prove the checkers have teeth. *)

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
