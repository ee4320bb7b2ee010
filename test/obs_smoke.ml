(* Smoke test behind the @obs-smoke alias (part of @runtest): run one traced
   measurement period of the flagship microbenchmark, export every format,
   and validate what came out.  Exits non-zero on any violation. *)

module Obs = Tstm_obs
module W = Tstm_harness.Workload
module S = Tstm_harness.Scenario

let check name cond = if not cond then failwith ("obs-smoke: " ^ name)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let () =
  let spec =
    W.make ~structure:W.List ~initial_size:64 ~update_pct:20.0 ~nthreads:4
      ~duration:0.001 ~seed:11 ()
  in
  let r, collector, metrics =
    S.run_intset_observed ~stm:"tinystm-wb" ~period:0.001 ~n_periods:1 spec
  in
  check "run committed transactions" (r.W.commits > 0);
  check "events were recorded"
    (Array.exists (fun ring -> Obs.Ring.length ring > 0)
       collector.Obs.Sink.rings);
  (* Chrome trace: write, re-read, validate. *)
  let trace_path = "obs_smoke_trace.json" in
  Obs.Export.write_chrome_trace ~path:trace_path collector;
  let ic = open_in_bin trace_path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "trace file is valid JSON" (Obs.Json.of_string_opt json <> None);
  check "trace has traceEvents" (contains "\"traceEvents\"" json);
  check "trace has tx slices" (contains "\"name\":\"tx\"" json);
  check "trace has per-CPU tracks" (contains "thread_name" json);
  (* Metrics CSV: write, re-read, validate shape. *)
  let csv_path = "obs_smoke_metrics.csv" in
  Obs.Metrics.write ~path:csv_path metrics;
  let ic = open_in_bin csv_path in
  let csv = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match String.split_on_char '\n' (String.trim csv) with
  | [ header; _row ] ->
      check "CSV header has throughput column" (contains "throughput_tx_s" header);
      check "CSV header has p99 column" (contains "p99_commit_cycles" header)
  | lines ->
      failwith
        (Printf.sprintf "obs-smoke: expected header + 1 CSV row, got %d lines"
           (List.length lines)));
  (* Contention report renders. *)
  let report = Obs.Export.top_contended ~n:5 collector in
  check "contention report non-empty" (String.length report > 0);
  Printf.printf
    "obs-smoke OK: %d commits, %d events, trace %d bytes, csv %d bytes\n"
    r.W.commits
    (Array.fold_left (fun a ring -> a + Obs.Ring.length ring) 0
       collector.Obs.Sink.rings)
    (String.length json) (String.length csv)
