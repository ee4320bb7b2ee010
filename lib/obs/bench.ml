(* Machine-readable wall-clock benchmark snapshots (BENCH_*.json) and the
   noise-aware regression comparator over two of them.

   This module is pure data: the harness that actually runs transactions
   on real domains lives in lib/harness/bench_real.ml (it needs the STMs,
   which sit above obs in the dependency order).  Keeping the snapshot
   model here means every layer — CI scripts, repro, tests — can read and
   compare trajectories without linking the benchmark. *)

let schema = "tstm-bench/1"

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

type sample = {
  thr : float;  (* committed transactions per wall-clock second *)
  elapsed_s : float;  (* measured (monotonic) duration of the repetition *)
  commits : int;
  aborts : int;
}

type cell = {
  stm : string;
  structure : string;
  domains : int;
  workload : string;
  size : int;
  update_pct : float;
  samples : sample list;  (* one per repetition, in execution order *)
  stats : Json.t;  (* merged Tm_stats.to_json over all repetitions *)
}

type host = {
  cores : int;
  ocaml : string;
  os_type : string;
  word_size : int;
  clock_res_ns : int;
}

type t = {
  rev : string;
  created_unix : float;
  duration_s : float;
  warmup_s : float;
  reps : int;
  host : host;
  cells : cell list;
}

(* Stable identity used to match cells across snapshots. *)
let cell_key c =
  Printf.sprintf "%s/%s/d%d/%s/n%d/u%g" c.stm c.structure c.domains c.workload
    c.size c.update_pct

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let mean_of l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev_of l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let n = float_of_int (List.length l) in
      let m = mean_of l in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
      sqrt (ss /. (n -. 1.0))

(* Two-sided 95% Student-t quantiles by degrees of freedom (1..30, then
   the normal limit).  Repetition counts are small, so the normal
   approximation would understate the interval badly. *)
let t975 = function
  | n when n <= 0 -> 0.0
  | 1 -> 12.706
  | 2 -> 4.303
  | 3 -> 3.182
  | 4 -> 2.776
  | 5 -> 2.571
  | 6 -> 2.447
  | 7 -> 2.365
  | 8 -> 2.306
  | 9 -> 2.262
  | 10 -> 2.228
  | n when n <= 15 -> 2.131
  | n when n <= 20 -> 2.086
  | n when n <= 30 -> 2.042
  | _ -> 1.960

let cell_throughputs c = List.map (fun s -> s.thr) c.samples
let cell_mean c = mean_of (cell_throughputs c)

let cell_ci95 c =
  let l = cell_throughputs c in
  let n = List.length l in
  if n < 2 then 0.0
  else t975 (n - 1) *. stddev_of l /. sqrt (float_of_int n)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sample_to_json s =
  Json.Obj
    [
      ("throughput_tx_s", Json.Float s.thr);
      ("elapsed_s", Json.Float s.elapsed_s);
      ("commits", Json.Int s.commits);
      ("aborts", Json.Int s.aborts);
    ]

let cell_to_json c =
  Json.Obj
    [
      ("stm", Json.String c.stm);
      ("structure", Json.String c.structure);
      ("domains", Json.Int c.domains);
      ("workload", Json.String c.workload);
      ("size", Json.Int c.size);
      ("update_pct", Json.Float c.update_pct);
      ( "throughput",
        Json.Obj
          [
            ("mean_tx_s", Json.Float (cell_mean c));
            ("ci95_tx_s", Json.Float (cell_ci95 c));
            ("samples", Json.List (List.map sample_to_json c.samples));
          ] );
      ("stats", c.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("rev", Json.String t.rev);
      ("created_unix", Json.Float t.created_unix);
      ( "protocol",
        Json.Obj
          [
            ("duration_s", Json.Float t.duration_s);
            ("warmup_s", Json.Float t.warmup_s);
            ("reps", Json.Int t.reps);
          ] );
      ( "host",
        Json.Obj
          [
            ("cores", Json.Int t.host.cores);
            ("ocaml", Json.String t.host.ocaml);
            ("os_type", Json.String t.host.os_type);
            ("word_size", Json.Int t.host.word_size);
            ("clock_res_ns", Json.Int t.host.clock_res_ns);
          ] );
      ("cells", Json.List (List.map cell_to_json t.cells));
    ]

let to_string t = Json.to_string (to_json t)

(* Field-by-field readers: every miss is a named error, so a truncated or
   hand-edited snapshot fails loud in `repro compare` and in CI. *)

let get what conv j =
  match conv j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" what)

let field what conv obj =
  match Json.member what obj with
  | Some j -> get what conv j
  | None -> Error (Printf.sprintf "missing field %S" what)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let sample_of_json j =
  let* thr = field "throughput_tx_s" Json.to_float j in
  let* elapsed_s = field "elapsed_s" Json.to_float j in
  let* commits = field "commits" Json.to_int j in
  let* aborts = field "aborts" Json.to_int j in
  Ok { thr; elapsed_s; commits; aborts }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let cell_of_json j =
  let* stm = field "stm" Json.to_str j in
  let* structure = field "structure" Json.to_str j in
  let* domains = field "domains" Json.to_int j in
  let* workload = field "workload" Json.to_str j in
  let* size = field "size" Json.to_int j in
  let* update_pct = field "update_pct" Json.to_float j in
  let* thr = field "throughput" Json.to_obj j in
  let* samples = field "samples" Json.to_list (Json.Obj thr) in
  let* samples = map_result sample_of_json samples in
  let stats = Option.value ~default:Json.Null (Json.member "stats" j) in
  Ok { stm; structure; domains; workload; size; update_pct; samples; stats }

let of_json j =
  let* s = field "schema" Json.to_str j in
  if s <> schema then
    Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  else
    let* rev = field "rev" Json.to_str j in
    let* created_unix = field "created_unix" Json.to_float j in
    let* proto = field "protocol" Json.to_obj j in
    let proto = Json.Obj proto in
    let* duration_s = field "duration_s" Json.to_float proto in
    let* warmup_s = field "warmup_s" Json.to_float proto in
    let* reps = field "reps" Json.to_int proto in
    let* h = field "host" Json.to_obj j in
    let h = Json.Obj h in
    let* cores = field "cores" Json.to_int h in
    let* ocaml = field "ocaml" Json.to_str h in
    let* os_type = field "os_type" Json.to_str h in
    let* word_size = field "word_size" Json.to_int h in
    let* clock_res_ns = field "clock_res_ns" Json.to_int h in
    let* cells = field "cells" Json.to_list j in
    let* cells = map_result cell_of_json cells in
    Ok
      {
        rev;
        created_unix;
        duration_s;
        warmup_s;
        reps;
        host = { cores; ocaml; os_type; word_size; clock_res_ns };
        cells;
      }

let of_string s =
  match Json.of_string_opt s with
  | None -> Error "not valid JSON"
  | Some j -> of_json j

let write ~path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let read ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s

let host () =
  {
    cores = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    clock_res_ns = Monotonic.resolution_ns ();
  }

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type delta = {
  key : string;
  old_mean : float;
  new_mean : float;
  pct : float;  (* (new - old) / old * 100; positive = faster *)
  noise : float;  (* combined CI as a percentage of the old mean *)
  regression : bool;
}

type verdict = {
  deltas : delta list;
  regressions : int;
  missing : string list;  (* cells in OLD with no counterpart in NEW *)
  added : string list;  (* cells in NEW with no counterpart in OLD *)
}

(* A cell regresses when the new mean is below the old by more than both
   the caller's floor and the measured noise: the union of the two CIs
   plus the threshold must not explain the drop.  Intervals built from 3-5
   repetitions are wide, so this errs toward silence — the right default
   for a shared CI runner. *)
let compare_cells ~threshold_pct old_c new_c =
  let old_mean = cell_mean old_c and new_mean = cell_mean new_c in
  let ci = cell_ci95 old_c +. cell_ci95 new_c in
  let pct =
    if old_mean = 0.0 then 0.0
    else (new_mean -. old_mean) /. old_mean *. 100.0
  in
  let noise = if old_mean = 0.0 then 0.0 else ci /. old_mean *. 100.0 in
  let regression =
    old_mean > 0.0
    && new_mean < old_mean -. ci
    && pct < -.threshold_pct
  in
  { key = cell_key old_c; old_mean; new_mean; pct; noise; regression }

let compare ?(threshold_pct = 10.0) ~old_snap ~new_snap () =
  let new_tbl = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace new_tbl (cell_key c) c) new_snap.cells;
  let deltas, missing =
    List.fold_left
      (fun (ds, ms) old_c ->
        match Hashtbl.find_opt new_tbl (cell_key old_c) with
        | Some new_c ->
            Hashtbl.remove new_tbl (cell_key old_c);
            (compare_cells ~threshold_pct old_c new_c :: ds, ms)
        | None -> (ds, cell_key old_c :: ms))
      ([], []) old_snap.cells
  in
  let added = Hashtbl.fold (fun k _ acc -> k :: acc) new_tbl [] in
  let deltas = List.rev deltas in
  {
    deltas;
    regressions = List.length (List.filter (fun d -> d.regression) deltas);
    missing = List.rev missing;
    added = List.sort Stdlib.compare added;
  }

let render_verdict v =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-40s %12s %12s %8s %8s\n" "cell" "old tx/s" "new tx/s"
       "delta" "noise");
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "%-40s %12.0f %12.0f %+7.1f%% %7.1f%%%s\n" d.key
           d.old_mean d.new_mean d.pct d.noise
           (if d.regression then "  REGRESSION" else "")))
    v.deltas;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%-40s (missing in new)\n" k))
    v.missing;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%-40s (new cell)\n" k))
    v.added;
  Buffer.add_string b
    (if v.deltas = [] && (v.missing <> [] || v.added <> []) then
       (* Disjoint cell sets: a verdict over zero comparisons is vacuous,
          so say that instead of declaring a clean bill of health. *)
       Printf.sprintf
         "no comparable cells: the snapshots share no (stm, structure, \
          domains, workload) key (%d only in old, %d only in new)\n"
         (List.length v.missing) (List.length v.added)
     else if v.regressions = 0 then "no regressions beyond noise\n"
     else Printf.sprintf "%d regression(s) beyond noise\n" v.regressions);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human table for one snapshot                                        *)
(* ------------------------------------------------------------------ *)

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "BENCH %s: %d cell(s), %d rep(s) x %.3fs (+%.3fs warmup), %d cores, \
        OCaml %s\n"
       t.rev (List.length t.cells) t.reps t.duration_s t.warmup_s t.host.cores
       t.host.ocaml);
  Buffer.add_string b
    (Printf.sprintf "%-40s %12s %10s %10s %10s\n" "cell" "mean tx/s" "ci95"
       "commits" "aborts");
  List.iter
    (fun c ->
      let commits = List.fold_left (fun a s -> a + s.commits) 0 c.samples in
      let aborts = List.fold_left (fun a s -> a + s.aborts) 0 c.samples in
      Buffer.add_string b
        (Printf.sprintf "%-40s %12.0f %10.0f %10d %10d\n" (cell_key c)
           (cell_mean c) (cell_ci95 c) commits aborts))
    t.cells;
  Buffer.contents b
