module Config = Tinystm.Config

type move =
  | Locks_double
  | Locks_halve
  | Shifts_up
  | Shifts_down
  | Hier_double
  | Hier_halve
  | Nop
  | Reverse

let move_label = function
  | Locks_double -> "1"
  | Locks_halve -> "2"
  | Shifts_up -> "3"
  | Shifts_down -> "4"
  | Hier_double -> "5"
  | Hier_halve -> "6"
  | Nop -> "7"
  | Reverse -> "8"

(* Absolute bounds of the search space (the paper sweeps locks 2^8..2^24,
   shifts 0..6(8), h 1..256; we allow a slightly wider box). *)
let min_locks = 1 lsl 4
let max_locks = 1 lsl 24
let min_shifts = 0
let max_shifts = 10
let min_hier = 1
let max_hier = 256

type key = int * int * int (* n_locks, shifts, hierarchy *)

let key_of (c : Config.t) : key = (c.Config.n_locks, c.Config.shifts, c.Config.hierarchy)

type step = { config : Config.t; throughput : float; move : move }

type t = {
  rng : Tstm_util.Xrand.t;
  samples_per_config : int;
  samples : float array;
  mutable n_samples : int;
  table : (key, float) Hashtbl.t;
  mutable current : Config.t;
  mutable came_from : (Config.t * float) option;
  mutable last_move : move;  (* the move that led into [current] *)
  (* Forbidden walls installed after >10 % drops (paper §4.2). *)
  mutable shifts_lo : int;
  mutable shifts_hi : int;
  mutable hier_lo : int;
  mutable hier_hi : int;
  mutable history_rev : step list;
}

let create ?(seed = 0x7e5) ?(samples_per_config = 3) initial =
  Config.validate initial;
  {
    rng = Tstm_util.Xrand.create seed;
    samples_per_config;
    samples = Array.make samples_per_config 0.0;
    n_samples = 0;
    table = Hashtbl.create 64;
    current = initial;
    came_from = None;
    last_move = Nop;
    shifts_lo = min_shifts;
    shifts_hi = max_shifts;
    hier_lo = min_hier;
    hier_hi = max_hier;
    history_rev = [];
  }

let current t = t.current
let history t = List.rev t.history_rev
let explored t = Hashtbl.length t.table

let best_two t =
  Hashtbl.fold
    (fun k v (b1, b2) ->
      match b1 with
      | None -> (Some (k, v), b2)
      | Some (_, v1) when v > v1 -> (Some (k, v), b1)
      | Some _ -> (
          match b2 with
          | None -> (b1, Some (k, v))
          | Some (_, v2) when v > v2 -> (b1, Some (k, v))
          | Some _ -> (b1, b2)))
    t.table (None, None)

(* The tuner searches the paper's three parameters; the write strategy is
   carried along unchanged. *)
let config_of_key (t : t) ((n_locks, shifts, hierarchy) : key) =
  Config.make ~n_locks ~shifts ~hierarchy ~strategy:t.current.Config.strategy
    ()

let best t =
  match best_two t with
  | Some (k, v), _ -> Some (config_of_key t k, v)
  | None, _ -> None

(* The destination of a move from [c], if legal under the absolute bounds,
   the forbidden walls, and h <= locks. *)
let apply_move t (c : Config.t) = function
  | Locks_double ->
      let n = c.Config.n_locks * 2 in
      if n > max_locks then None else Some { c with Config.n_locks = n }
  | Locks_halve ->
      let n = c.Config.n_locks / 2 in
      if n < min_locks || n < c.Config.hierarchy then None
      else Some { c with Config.n_locks = n }
  | Shifts_up ->
      let s = c.Config.shifts + 1 in
      if s > t.shifts_hi then None else Some { c with Config.shifts = s }
  | Shifts_down ->
      let s = c.Config.shifts - 1 in
      if s < t.shifts_lo then None else Some { c with Config.shifts = s }
  | Hier_double ->
      let h = c.Config.hierarchy * 2 in
      if h > t.hier_hi || h > c.Config.n_locks then None
      else Some { c with Config.hierarchy = h }
  | Hier_halve ->
      let h = c.Config.hierarchy / 2 in
      if h < t.hier_lo then None
      else Some { c with Config.hierarchy = h }
  | Nop -> Some c
  | Reverse -> (
      match best t with Some (b, _) -> Some b | None -> Some c)

let exploring_moves =
  [| Locks_double; Locks_halve; Shifts_up; Shifts_down; Hier_double; Hier_halve |]

(* Random move among 1-6 whose destination is legal and uncharted. *)
let pick_uncharted t =
  let candidates =
    Array.to_list exploring_moves
    |> List.filter_map (fun mv ->
           match apply_move t t.current mv with
           | Some c when not (Hashtbl.mem t.table (key_of c)) -> Some (mv, c)
           | _ -> None)
  in
  match candidates with
  | [] -> None
  | l ->
      let n = List.length l in
      Some (List.nth l (Tstm_util.Xrand.int t.rng n))

type decision = Keep_measuring | Reconfigure of Config.t

let goto t mv cfg =
  t.last_move <- mv;
  t.current <- cfg;
  (* The tuner runs on the control thread (CPU 0); timestamps come from the
     sink's installed clock since this layer has no runtime handle. *)
  if Tstm_obs.Sink.enabled () then
    Tstm_obs.Sink.emit_now ~cpu:0
      (Tstm_obs.Event.Tuner_move
         {
           label =
             Printf.sprintf "%s (move %s)" (Config.to_string cfg)
               (move_label mv);
         });
  Reconfigure cfg

let maybe_forbid t thr =
  (* A >10 % drop after a shifts/hierarchy move walls off further movement
     past the value we came from. *)
  match t.came_from with
  | Some (prev_cfg, prev_thr) when thr < prev_thr *. 0.90 -> (
      match t.last_move with
      | Shifts_up -> t.shifts_hi <- prev_cfg.Config.shifts
      | Shifts_down -> t.shifts_lo <- prev_cfg.Config.shifts
      | Hier_double -> t.hier_hi <- prev_cfg.Config.hierarchy
      | Hier_halve -> t.hier_lo <- prev_cfg.Config.hierarchy
      | Locks_double | Locks_halve | Nop | Reverse -> ())
  | _ -> ()

let record t sample =
  t.samples.(t.n_samples) <- sample;
  t.n_samples <- t.n_samples + 1;
  if t.n_samples < t.samples_per_config then Keep_measuring
  else begin
    t.n_samples <- 0;
    let a = Array.sub t.samples 0 t.samples_per_config in
    let thr = Array.fold_left Float.max a.(0) a in
    Hashtbl.replace t.table (key_of t.current) thr;
    t.history_rev <-
      { config = t.current; throughput = thr; move = t.last_move }
      :: t.history_rev;
    let b1, b2 = best_two t in
    let best_key, best_thr =
      match b1 with Some kv -> kv | None -> (key_of t.current, thr)
    in
    let at_best = best_key = key_of t.current in
    let dropped_vs_prev =
      match t.came_from with
      | Some (_, prev_thr) -> thr < prev_thr *. 0.98
      | None -> false
    in
    let far_from_best = (not at_best) && thr < best_thr *. 0.90 in
    if dropped_vs_prev || far_from_best then begin
      maybe_forbid t thr;
      t.came_from <- None;
      goto t Reverse (config_of_key t best_key)
    end
    else
      match pick_uncharted t with
      | Some (mv, cfg) ->
          t.came_from <- Some (t.current, thr);
          goto t mv cfg
      | None ->
          if not at_best then begin
            t.came_from <- None;
            goto t Reverse (config_of_key t best_key)
          end
          else begin
            (* At the best configuration with no neighbours left.  If we now
               measure below the second best, switch to it (paper §4.2);
               otherwise stay put. *)
            match b2 with
            | Some (k2, thr2) when thr < thr2 ->
                t.came_from <- None;
                goto t Reverse (config_of_key t k2)
            | _ ->
                t.came_from <- None;
                goto t Nop t.current
          end
  end
