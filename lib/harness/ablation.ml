(* Cost-model ablation: how the headline comparison responds to each
   simulator cost constant, plus the §3.1 contention-management and §3.2
   hierarchical-array alternatives.

   Each point is pure data and [run_point] is self-contained (it installs
   the cost model it needs before running), so points evaluate
   independently in any order or process. *)

module CM = Tstm_runtime.Cache_model
module Shm = Tstm_runtime.Shm

type point =
  | Cost of { label : string; params : CM.params }
  | Conflict_wait of int
  | Hierarchy of int

type row =
  | Cost_row of { label : string; cells : (string * float) list }
  | Wait_row of { attempts : int; throughput : float; aborts : int }
  | Hierarchy_row of {
      hierarchy : int;
      throughput : float;
      processed : int;
      skipped : int;
    }

(* DESIGN.md calls out the simulator cost constants as a design choice; this
   sweep shows how the headline comparison (Fig. 3b: list, 256 elements,
   20% updates, 8 threads) responds to each of them. *)
let default_points =
  [
    Cost { label = "baseline"; params = CM.default };
    Cost
      {
        label = "line_transfer x2";
        params = { CM.default with CM.line_transfer = 200 };
      };
    Cost
      {
        label = "line_transfer /2";
        params = { CM.default with CM.line_transfer = 50 };
      };
    Cost
      { label = "cas_extra x3"; params = { CM.default with CM.cas_extra = 60 } };
    Cost
      {
        label = "no L1 (flat hierarchy)";
        params = { CM.default with CM.l1_miss = 0 };
      };
    Cost
      {
        label = "tiny private cache (16 KiB)";
        params =
          { CM.default with CM.private_cache_lines = 256; CM.l1_lines = 64 };
      };
    Conflict_wait 0;
    Conflict_wait 4;
    Conflict_wait 32;
    Hierarchy 1;
    Hierarchy 64;
    Hierarchy 256;
  ]

let headline_spec ~initial_size =
  Workload.make ~structure:Workload.List ~initial_size ~update_pct:20.0
    ~nthreads:8 ~duration:0.002 ()

let run_point = function
  | Cost { label; params } ->
      Shm.configure params;
      let spec = headline_spec ~initial_size:256 in
      (* One representative per algorithm family (the first registered
         entry), so a newly registered family joins the headline
         sensitivity table without touching this sweep. *)
      let cells =
        List.map
          (fun fam ->
            match
              Tstm_tm.Registry.filter (fun e -> e.Tstm_tm.Registry.family = fam)
            with
            | [] -> assert false
            | e :: _ ->
                let r =
                  Scenario.run_intset ~stm:e.Tstm_tm.Registry.name spec
                in
                (fam, r.Workload.throughput))
          (Tstm_tm.Registry.families ())
      in
      Cost_row { label; cells }
  | Conflict_wait attempts ->
      (* Contention-management alternative of §3.1: bounded wait instead of
         immediate abort on a foreign lock.  [conflict_wait] is a
         TinySTM-specific constructor knob, not part of the packaged STM
         interface, so this point builds the instance directly. *)
      Shm.configure CM.default;
      let spec = headline_spec ~initial_size:256 in
      let t =
        Scenario.Ts.create ~kind:Scenario.Sim.kind
          ~config:(Tinystm.Config.make ())
          ~conflict_wait:attempts
          ~memory_words:(Workload.memory_words_for spec)
          ()
      in
      let module D = Driver.Make (Scenario.Sim) (Scenario.Ts) in
      let ops = D.make_structure t spec.Workload.structure in
      D.populate t ops spec;
      let r, _ = D.run t ops spec in
      Wait_row
        { attempts; throughput = r.Workload.throughput; aborts = r.Workload.aborts }
  | Hierarchy hierarchy ->
      (* The §3.2 validation fast path on a validation-heavy list. *)
      Shm.configure CM.default;
      let spec = headline_spec ~initial_size:1024 in
      let r =
        Scenario.run_intset ~stm:"tinystm-wb" ~n_locks:(1 lsl 16) ~shifts:2
          ~hierarchy spec
      in
      let s = r.Workload.stats in
      Hierarchy_row
        {
          hierarchy;
          throughput = r.Workload.throughput;
          processed = s.Tstm_tm.Tm_stats.val_locks_processed;
          skipped = s.Tstm_tm.Tm_stats.val_locks_skipped;
        }

let point_label = function
  | Cost { label; _ } -> Printf.sprintf "ablation %s" label
  | Conflict_wait n -> Printf.sprintf "ablation conflict_wait=%d" n
  | Hierarchy h -> Printf.sprintf "ablation h=%d" h

let header = "=== Cost-model ablation (list 256, 20% updates, 8 threads) ==="

let render = function
  | Cost_row { label; cells } ->
      let body =
        String.concat "   "
          (List.map
             (fun (fam, v) ->
               Printf.sprintf "%s %8.0f tx/s" (String.uppercase_ascii fam) v)
             cells)
      in
      let ratio =
        match (List.assoc_opt "tinystm" cells, List.assoc_opt "tl2" cells) with
        | Some wb, Some tl2 when tl2 > 0. ->
            Printf.sprintf "   (WB/TL2 %.2f)" (wb /. tl2)
        | _ -> ""
      in
      Printf.sprintf "%-34s %s%s" label body ratio
  | Wait_row { attempts; throughput; aborts } ->
      Printf.sprintf "conflict_wait=%-3d                  WB %8.0f tx/s   aborts %d"
        attempts throughput aborts
  | Hierarchy_row { hierarchy; throughput; processed; skipped } ->
      Printf.sprintf
        "hierarchy h=%-3d                    WB %8.0f tx/s   val locks: %d processed, %d skipped"
        hierarchy throughput processed skipped
