(* Seeded, count-capped fault plan for real-domain runs.

   The chaos engine ([Tstm_chaos]) perturbs the *simulated* schedule and
   draws every decision from one SplitMix64 stream — safe only because the
   simulator is single-threaded under the hood.  This plan is its
   real-hardware sibling: decisions are made concurrently from many
   domains, so the single stream is replaced by a stateless hash of
   (seed, tid, per-tid decision index).  Thread t's k-th consultation
   always draws the same value regardless of interleaving, and the global
   fired count is claimed with a CAS against [limit], which preserves the
   chaos replay discipline in the only form real time allows: the same
   (seed, config, limit) triple produces the same per-thread decision
   sequences and exactly the same *number* of fired injections; capping
   [limit] at a previous run's [fired ()] bounds a replay to that run's
   schedule even though wall-clock interleaving is not reproducible.

   The STMs reach [at_point] only through their probe, behind the shared
   gate that [activate]/[deactivate] keep up to date: a disarmed plan costs
   one branch on the STM hot paths, keeping `bench real` snapshots
   byte-identical to a build without fault consultations. *)

module Mono = Tstm_obs.Monotonic
module Bitops = Tstm_util.Bitops

type kind = Crash | Hang | Oom

let kind_index = function Crash -> 0 | Hang -> 1 | Oom -> 2
let n_kinds = 3
let kind_name = function Crash -> "crash" | Hang -> "hang" | Oom -> "oom"

exception Injected_crash of { tid : int; point : string }

let () =
  Printexc.register_printer (function
    | Injected_crash { tid; point } ->
        Some
          (Printf.sprintf "injected worker crash (tid %d, %s point)" tid point)
    | _ -> None)

type config = {
  crash_pct : float;  (** chance a linearization-point visit crashes *)
  hang_pct : float;  (** chance a linearization-point visit stalls *)
  hang_us : int;  (** upper bound of one injected stall, microseconds *)
  oom_pct : float;  (** chance a [Vmm.alloc] fails with [Out_of_memory] *)
}

let default = { crash_pct = 0.5; hang_pct = 0.2; hang_us = 2_000; oom_pct = 1.0 }

let validate cfg =
  let pct name v =
    if v < 0.0 || v > 100.0 then
      invalid_arg (Printf.sprintf "Fault: %s outside [0, 100]" name)
  in
  pct "crash_pct" cfg.crash_pct;
  pct "hang_pct" cfg.hang_pct;
  pct "oom_pct" cfg.oom_pct;
  if cfg.crash_pct +. cfg.hang_pct > 100.0 then
    invalid_arg "Fault: crash_pct + hang_pct > 100";
  if cfg.hang_us < 1 then invalid_arg "Fault: hang_us < 1"

(* Matches the STMs' max_threads ceiling (TinySTM's lock encoding caps
   tids at 127) and [Watchdog.max_cpus]. *)
let max_tids = 128

type plan = {
  seed : int;
  cfg : config;
  limit : int;
  fired : int Atomic.t;
  decisions : int Atomic.t array;  (* per-tid consultation counters *)
  fired_kind : int Atomic.t array;  (* per-kind fired counts *)
}

let state : plan option ref = ref None
let on = ref false
let enabled () = !on

(* Per-tid suspension depth: consultations report [Proceed] while the
   tid's depth is positive.  The STMs mask their serial-irrevocable
   escalations — a crash there would leave direct writes half-applied and
   an injected allocation failure could not be rolled back. *)
let masks = Array.init max_tids (fun _ -> Atomic.make 0)

(* Per-tid heartbeat: monotonic nanoseconds of the last consultation (or
   explicit [tick]).  Independent of the armed plan so the pool monitor
   can read stale beats even while a worker is mid-hang. *)
let ticks = Array.init max_tids (fun _ -> Atomic.make (-1))

let tick ~tid = Atomic.set ticks.(tid land (max_tids - 1)) (Mono.now_ns ())
let last_tick ~tid = Atomic.get ticks.(tid land (max_tids - 1))

let clear_ticks () =
  Array.iter (fun t -> Atomic.set t (-1)) ticks

let mask ~tid = ignore (Atomic.fetch_and_add masks.(tid land (max_tids - 1)) 1)

let unmask ~tid =
  let m = masks.(tid land (max_tids - 1)) in
  if Atomic.fetch_and_add m (-1) <= 0 then ignore (Atomic.fetch_and_add m 1)

let masked ~tid = Atomic.get masks.(tid land (max_tids - 1)) > 0

let activate ?(config = default) ?limit ~seed () =
  validate config;
  let limit = match limit with None -> max_int | Some l -> max 0 l in
  Array.iter (fun m -> Atomic.set m 0) masks;
  clear_ticks ();
  state :=
    Some
      {
        seed;
        cfg = config;
        limit;
        fired = Atomic.make 0;
        decisions = Array.init max_tids (fun _ -> Atomic.make 0);
        fired_kind = Array.init n_kinds (fun _ -> Atomic.make 0);
      };
  on := true;
  Tstm_util.Gate.set Tstm_util.Gate.Fault true

let deactivate () =
  on := false;
  state := None;
  Tstm_util.Gate.set Tstm_util.Gate.Fault false

let with_plan ?config ?limit ~seed f =
  activate ?config ?limit ~seed ();
  Fun.protect ~finally:deactivate f

(* One stateless draw: thread [tid]'s [idx]-th consultation.  Two rounds
   of the Stafford mix give independent-looking streams per tid. *)
let draw p ~tid ~idx =
  Bitops.mix (Bitops.mix (p.seed + ((tid + 1) * 1_000_003)) lxor idx)

let unit_of_hash h = float_of_int ((h lsr 13) land 0xFFFFF) /. 1_048_576.0

(* Claim one fired slot, or refuse once the cap is reached.  The CAS loop
   makes the cap exact under concurrent claims. *)
let rec claim p =
  let f = Atomic.get p.fired in
  if f >= p.limit then false
  else if Atomic.compare_and_set p.fired f (f + 1) then true
  else claim p

let count p k = ignore (Atomic.fetch_and_add p.fired_kind.(kind_index k) 1)

type outcome = Proceed | Crash | Hang of int  (** stall length, ns *)

let at_point ~tid =
  match !state with
  | Some p when !on && not (masked ~tid) ->
      tick ~tid;
      let idx =
        Atomic.fetch_and_add p.decisions.(tid land (max_tids - 1)) 1
      in
      let h = draw p ~tid ~idx in
      let u = unit_of_hash h *. 100.0 in
      if u < p.cfg.crash_pct then
        if claim p then begin
          count p Crash;
          Crash
        end
        else Proceed
      else if u < p.cfg.crash_pct +. p.cfg.hang_pct then
        if claim p then begin
          count p Hang;
          let us = 1 + (((h lsr 33) land 0xFFFF) mod p.cfg.hang_us) in
          Hang (us * 1_000)
        end
        else Proceed
      else Proceed
  | _ ->
      if !on then tick ~tid;
      Proceed

let oom ~tid =
  match !state with
  | Some p when !on && not (masked ~tid) ->
      tick ~tid;
      let idx =
        Atomic.fetch_and_add p.decisions.(tid land (max_tids - 1)) 1
      in
      let h = draw p ~tid ~idx in
      if unit_of_hash h *. 100.0 < p.cfg.oom_pct && claim p then begin
        count p Oom;
        true
      end
      else false
  | _ -> false

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
      Buffer.add_string b
        (Printf.sprintf "fault: seed=%d fired=%d/%s decisions=%d" p.seed
           (Atomic.get p.fired)
           (if p.limit = max_int then "inf" else string_of_int p.limit)
           (decisions ()));
      List.iter
        (fun k ->
          let n = Atomic.get p.fired_kind.(kind_index k) in
          if n > 0 then
            Buffer.add_string b (Printf.sprintf " %s=%d" (kind_name k) n))
        [ Crash; Hang; Oom ];
      Buffer.contents b
