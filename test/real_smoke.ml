(* Real-hardware bench smoke: short wall-clock runs on 1, 2 and 4 domains.

   Real runs are nondeterministic, so the assertions are the
   nondeterminism-robust invariants the harness is designed around:

   - integrity: total commits = total counted operations, the structure
     returns to its populated size, zero allocator drift (all reported via
     [Bench_real.integrity.violations]);
   - the emitted snapshot is schema-valid JSON and round-trips through the
     parser to a byte-identical serialization;
   - per-cell samples are positive and self-consistent.

   `dune build @real-smoke` runs it alone; runtest includes it. *)

module Bench = Tstm_obs.Bench
module Bench_real = Tstm_harness.Bench_real

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let protocol =
  { Bench_real.duration_s = 0.05; warmup_s = 0.02; reps = 2; observe = true }

let run_one ~stm ~structure ~domains =
  let req =
    { Bench_real.default_request with Bench_real.stm; structure; domains }
  in
  match Bench_real.run_cell req protocol with
  | Error e -> fail "real-smoke: %s/%s d=%d: %s" stm structure domains e
  | Ok (cell, integ) ->
      List.iter
        (fun v ->
          fail "real-smoke: %s/%s d=%d violated: %s" stm structure domains v)
        integ.Bench_real.violations;
      if integ.Bench_real.ops_total <= 0 then
        fail "real-smoke: %s/%s d=%d: no operations ran" stm structure domains;
      List.iter
        (fun (s : Bench.sample) ->
          if s.Bench.thr <= 0.0 || s.Bench.elapsed_s <= 0.0 then
            fail "real-smoke: %s/%s d=%d: degenerate sample" stm structure
              domains;
          if s.Bench.commits < 0 || s.Bench.aborts < 0 then
            fail "real-smoke: %s/%s d=%d: negative counters" stm structure
              domains)
        cell.Bench.samples;
      if List.length cell.Bench.samples <> protocol.Bench_real.reps then
        fail "real-smoke: %s/%s d=%d: expected %d samples, got %d" stm
          structure domains protocol.Bench_real.reps
          (List.length cell.Bench.samples);
      (cell, integ)

let () =
  let cells = ref [] in
  let total_ops = ref 0 in
  let total_commits = ref 0 in
  List.iter
    (fun domains ->
      let cell, integ = run_one ~stm:"wb" ~structure:"rbtree" ~domains in
      cells := cell :: !cells;
      total_ops := !total_ops + integ.Bench_real.ops_total;
      total_commits := !total_commits + integ.Bench_real.commits_total)
    [ 1; 2; 4 ];
  (* Exercise the other STMs and the vacation path at one width each. *)
  let cell_tl2, _ = run_one ~stm:"tl2" ~structure:"list" ~domains:2 in
  let cell_vac, _ = run_one ~stm:"wt" ~structure:"vacation" ~domains:2 in
  cells := cell_vac :: cell_tl2 :: !cells;
  (* Snapshot schema validity and round-trip determinism. *)
  let snap =
    Bench_real.snapshot ~rev:"smoke" ~created_unix:0.0 protocol
      (List.rev !cells)
  in
  let s = Bench.to_string snap in
  (match Bench.of_string s with
  | Error e -> fail "real-smoke: snapshot does not parse back: %s" e
  | Ok snap' ->
      let s' = Bench.to_string snap' in
      if s <> s' then fail "real-smoke: snapshot round-trip not byte-stable");
  Printf.printf
    "real-smoke: OK (%d cells, %d ops = %d commits on wb/rbtree, snapshot \
     %d bytes)\n"
    (List.length !cells) !total_ops !total_commits (String.length s)
