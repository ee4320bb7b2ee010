(* The `repro` CLI surface: every flag declared once (so a printed replay
   line and its parse cannot drift) and the drivers that route figures,
   ablation sweeps and single points through the job planner and the pool.

   Output discipline: everything deterministic goes to stdout (figure
   headers, tables, CSV notes), everything scheduling-dependent — progress
   lines, wall-clock timings, the sweep summary — goes to stderr.  That is
   what makes `--jobs 1` and `--jobs N` byte-identical on stdout. *)

open Cmdliner
module F = Tstm_harness.Figures
module W = Tstm_harness.Workload
module Registry = Tstm_tm.Registry
module Progress = Tstm_obs.Progress
module St = Tstm_harness.Stress
module Sm = Tstm_harness.Storm
module FR = Tstm_harness.Fault_run
module Sv = Tstm_service.Service
module Arrival = Tstm_service.Arrival

(* ------------------------------------------------------------------ *)
(* Flag declarations                                                   *)
(* ------------------------------------------------------------------ *)

(* A flag is declared once, as a [key]: its names, converter, doc string
   and how its value reads on a replay line.  A [field] binds a key to the
   value it sets in an invocation record; a list of fields is both the
   cmdliner term that builds the record and the renderer of replay lines,
   so parsing and replaying cannot drift. *)

type 'a kind =
  | Opt : 'a Arg.conv * ('a -> string) -> 'a kind
  | Flag : bool kind

type 'a key = {
  names : string list;
  docv : string option;
  doc : string;
  kind : 'a kind;
}

type 's field =
  | Field : {
      key : 'a key;
      get : 's -> 'a;
      set : 's -> 'a -> 's;
      always : bool;  (* on every replay line, default or not *)
    }
      -> 's field

let show_with conv v = Format.asprintf "%a" (Arg.conv_printer conv) v

let key ?docv ?show names conv ~doc =
  let show = Option.value show ~default:(show_with conv) in
  { names; docv; doc; kind = Opt (conv, show) }

let some_key ?docv names conv ~doc =
  let show = function Some v -> show_with conv v | None -> "" in
  { names; docv; doc; kind = Opt (Arg.some conv, show) }

let float_key ?docv names ~doc =
  key ?docv ~show:Tstm_util.Float_text.to_string names Arg.float ~doc

let flag_key names ~doc = { names; docv = None; doc; kind = Flag }

let field ?(always = false) key ~get ~set = Field { key; get; set; always }

let arg_of (type a) (k : a key) (default : a) : a Term.t =
  let i = Arg.info k.names ?docv:k.docv ~doc:k.doc in
  match k.kind with
  | Opt (c, _) -> Arg.(value & opt c default & i)
  | Flag -> Arg.(value & flag i)

let term_of default fields =
  List.fold_left
    (fun acc (Field f) -> Term.(const f.set $ acc $ arg_of f.key (f.get default)))
    (Term.const default) fields

let flag_name k = "--" ^ List.find (fun n -> String.length n > 1) k.names

let render (type a) (k : a key) (v : a) =
  match k.kind with
  | Flag -> if v then [ flag_name k ] else []
  | Opt (_, show) -> [ flag_name k; show v ]

(* The replay line shows every [always] field and every other field whose
   value differs from the command's default. *)
let replay_line cmd ~default fields s =
  String.concat " "
    ("repro" :: cmd
    :: List.concat_map
         (fun (Field f) ->
           let v = f.get s in
           if f.always || v <> f.get default then render f.key v else [])
         fields)

(* ------------------------------------------------------------------ *)
(* Shared keys and flag terms                                          *)
(* ------------------------------------------------------------------ *)

let profile_arg =
  let profile_enum = Arg.enum [ ("quick", F.quick); ("full", F.full) ] in
  Arg.(
    value
    & opt profile_enum F.quick
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Experiment scale: $(b,quick) (smoke) or $(b,full) (paper-size).")

let jobs_key =
  key [ "j"; "jobs" ] ~docv:"N" Arg.int
    ~doc:
      "Evaluate simulated runs on $(docv) worker processes.  Results are \
       merged in plan order, so stdout is byte-identical for any $(docv)."

let jobs_arg = arg_of jobs_key 1

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write each table/surface as a CSV file into $(docv).")

let san_key =
  flag_key [ "san" ]
    ~doc:
      "Arm the happens-before sanitizer: shadow every simulated word and \
       lock slot, check the run for races, lock-discipline and \
       clock-discipline violations, and fail on any finding."

let san_arg = arg_of san_key false

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON to $(docv) \
           (loadable in Perfetto or chrome://tracing).")

let metrics_csv_key =
  some_key [ "metrics-csv" ] ~docv:"FILE" Arg.string
    ~doc:
      "Record the run and write per-measurement-period metrics (one CSV row \
       per period) to $(docv)."

let metrics_csv_arg = arg_of metrics_csv_key None

let top_contended_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "top-contended" ] ~docv:"N"
        ~doc:
          "Record the run and print the $(docv) most contended cache lines, \
           split into true conflicts and false sharing.")

let periods_key =
  key [ "periods" ] Arg.int
    ~doc:
      "Measurement periods for observed runs (duration is split evenly; \
       only used with --trace/--metrics-csv/--top-contended)."

let periods_arg = arg_of periods_key 10

let structure_conv =
  Arg.enum
    (List.map
       (fun s -> (W.structure_to_string s, s))
       [ W.List; W.Rbtree; W.Skiplist; W.Hashset ])

let structure_key =
  key [ "s"; "structure" ] ~docv:"STRUCT" structure_conv
    ~doc:"Data structure: list, rbtree, skiplist or hashset."

let structure_arg = arg_of structure_key W.List

let result_conv of_string to_string =
  let parse s = Result.map_error (fun m -> `Msg m) (of_string s) in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

(* STM names resolve through the registry, so the flag accepts exactly the
   set of packaged implementations (canonical names and aliases) and a typo
   lists them. *)
let stm_conv =
  result_conv
    (fun s ->
      if Registry.mem s then Ok (Registry.canonical s)
      else
        Error
          (Printf.sprintf "unknown STM %S (known: %s)" s
             (String.concat ", " (Registry.names ()))))
    Fun.id

(* The doc string enumerates the registry at startup, so a newly
   registered STM shows up in --help without touching this file. *)
let stm_doc () =
  String.concat ", "
    (List.map
       (fun (e : Registry.entry) ->
         match e.Registry.aliases with
         | [] -> e.Registry.name
         | aliases ->
             Printf.sprintf "%s (%s)" e.Registry.name
               (String.concat ", " aliases))
       (Registry.all ()))

let stm_key =
  key [ "stm" ] ~docv:"STM" stm_conv
    ~doc:(Printf.sprintf "STM implementation: %s." (stm_doc ()))

let stm_arg = arg_of stm_key "tinystm-wb"

let all_stms_key =
  flag_key [ "all-stms" ] ~doc:"Run every registered STM (overrides --stm)."

let all_stms_flag = arg_of all_stms_key false

let size_arg =
  Arg.(value & opt int 256 & info [ "n"; "size" ] ~doc:"Initial structure size.")

let updates_arg =
  Arg.(value & opt float 20.0 & info [ "u"; "updates" ] ~doc:"Update rate (%).")

let overwrites_arg =
  Arg.(
    value & opt float 0.0
    & info [ "overwrites" ] ~doc:"Overwrite-transaction rate (%).")

let threads_key = key [ "t"; "threads" ] Arg.int ~doc:"Simulated CPUs."
let threads_arg = arg_of threads_key 8

let duration_arg =
  Arg.(
    value & opt float 0.005
    & info [ "d"; "duration" ] ~doc:"Measured virtual seconds.")

let locks_exp_arg =
  Arg.(
    value & opt int 16
    & info [ "locks-exp" ] ~doc:"log2 of the lock-array size.")

let shifts_arg =
  Arg.(
    value & opt int 0 & info [ "shifts" ] ~doc:"Address shifts of the lock hash.")

let hierarchy_arg =
  Arg.(
    value & opt int 1
    & info [ "hierarchy" ] ~doc:"Hierarchical array size (1 = disabled).")

let seed_key = key [ "seed" ] Arg.int ~doc:"Workload seed."
let seed_arg = arg_of seed_key 42

(* Contention managers resolve through the Cm registry, keeping the flag in
   sync with the set of implemented policies; the value stays the validated
   name string so it can cross the job Marshal boundary cheaply. *)
let cm_key =
  key [ "cm" ] ~docv:"CM"
    (result_conv
       (fun s -> Result.map Tstm_cm.Cm.to_string (Tstm_cm.Cm.of_string s))
       Fun.id)
    ~doc:
      "Contention manager: backoff (default, the historical behaviour), \
       suicide, karma, greedy or serialize[:N]."

let cm_arg = arg_of cm_key "backoff"

let workload_key =
  key [ "workload" ] ~docv:"PATTERN"
    (result_conv W.pattern_of_string W.pattern_to_string)
    ~doc:
      "Adversarial workload pattern: uniform (default), zipf:THETA, \
       hotspot:N, bimodal:SPAN or rates:F."

let workload_arg = arg_of workload_key W.Uniform

let seeds_key ~doc = key [ "seeds" ] ~docv:"N" Arg.int ~doc
let ops_key ~doc = key [ "ops" ] Arg.int ~doc

let key_range_key =
  key [ "key-range" ] Arg.int ~doc:"Keys are drawn uniformly from 1..RANGE."

let watchdog_key ~doc = flag_key [ "watchdog" ] ~doc

(* Watchdog thresholds, shared by `repro storm` and `repro serve` (with
   different defaults). *)
let watchdog_window_key =
  key [ "watchdog-window" ] ~docv:"CYCLES" Arg.int
    ~doc:
      "Progress-watchdog window length in cycles; a window with zero \
       commits counts as a livelock."

let watchdog_retry_key =
  key [ "watchdog-retry-ceiling" ] ~docv:"N" Arg.int
    ~doc:"Retry count at which the watchdog declares a transaction starved."

let watchdog_calm_key =
  key [ "watchdog-calm" ] ~docv:"W" Arg.int
    ~doc:
      "Consecutive calm windows before the degradation ladder steps back \
       down a level."

(* ------------------------------------------------------------------ *)
(* Replayable commands                                                 *)
(* ------------------------------------------------------------------ *)

(* A field of the spec an invocation record carries. *)
let in_spec ~outer:(get_o, set_o) ?always key get set =
  field ?always key
    ~get:(fun t -> get (get_o t))
    ~set:(fun t v -> set_o t (set (get_o t) v))

module Stress = struct
  type t = {
    spec : St.spec;
    single : bool;
    seeds : int;
    all_stms : bool;
    all_structures : bool;
    jobs : int;
  }

  let default =
    {
      spec = St.default;
      single = false;
      seeds = 50;
      all_stms = false;
      all_structures = false;
      jobs = 1;
    }

  let spec ?always =
    in_spec ?always ~outer:((fun t -> t.spec), fun t spec -> { t with spec })

  let bug_conv =
    Arg.enum
      (List.map
         (fun b -> (Tstm_chaos.Plan.bug_name b, b))
         Tstm_chaos.Plan.[ Skip_extension; Skip_validation ])

  let fields =
    [
      spec ~always:true stm_key
        (fun s -> s.St.stm) (fun s v -> { s with St.stm = v });
      field all_stms_key
        ~get:(fun t -> t.all_stms) ~set:(fun t v -> { t with all_stms = v });
      spec ~always:true structure_key
        (fun s -> s.St.structure) (fun s v -> { s with St.structure = v });
      field
        (flag_key [ "all-structures" ]
           ~doc:
             "Stress list, rbtree, skiplist and hashset (overrides \
              --structure).")
        ~get:(fun t -> t.all_structures)
        ~set:(fun t v -> { t with all_structures = v });
      (* A given seed switches from sweeping to replaying that one seed. *)
      field
        (some_key [ "seed" ] ~docv:"S" Arg.int
           ~doc:
             "Replay a single chaos seed instead of sweeping (prints the \
              per-run detail; combine with --sites for a shrunk schedule).")
        ~get:(fun t -> if t.single then Some t.spec.St.seed else None)
        ~set:(fun t -> function
          | Some seed -> { t with single = true; spec = { t.spec with St.seed } }
          | None -> t);
      field
        (seeds_key ~doc:"Sweep chaos seeds 0..N-1.")
        ~get:(fun t -> t.seeds) ~set:(fun t v -> { t with seeds = v });
      spec threads_key
        (fun s -> s.St.nthreads) (fun s v -> { s with St.nthreads = v });
      spec
        (ops_key ~doc:"Operations per thread.")
        (fun s -> s.St.per_thread) (fun s v -> { s with St.per_thread = v });
      spec key_range_key
        (fun s -> s.St.key_range) (fun s v -> { s with St.key_range = v });
      spec
        (key [ "max-retries" ] Arg.int
           ~doc:
             "Retry budget before a transaction escalates to the \
              serial-irrevocable slow path (0 = never).")
        (fun s -> s.St.max_retries) (fun s v -> { s with St.max_retries = v });
      spec cm_key (fun s -> s.St.cm) (fun s v -> { s with St.cm = v });
      spec workload_key
        (fun s -> s.St.pattern) (fun s v -> { s with St.pattern = v });
      spec
        (some_key [ "sites" ] ~docv:"L" Arg.int
           ~doc:
             "Cap the number of chaos injections that may fire (replaying a \
              shrunk schedule).")
        (fun s -> s.St.site_limit) (fun s v -> { s with St.site_limit = v });
      spec
        (key [ "window" ] Arg.int ~doc:"Serializability checker window.")
        (fun s -> s.St.window) (fun s v -> { s with St.window = v });
      spec
        (some_key [ "bug" ] ~docv:"BUG" bug_conv
           ~doc:
             "Arm a deliberate protocol bug (skip-extension, \
              skip-validation) to demonstrate the checker catches it.")
        (fun s -> s.St.bug) (fun s v -> { s with St.bug = v });
      spec san_key (fun s -> s.St.san) (fun s v -> { s with St.san = v });
      field jobs_key ~get:(fun t -> t.jobs) ~set:(fun t v -> { t with jobs = v });
    ]

  let term = term_of default fields

  let replay spec =
    replay_line "stress" ~default fields { default with spec; single = true }
end

module Storm = struct
  type t = {
    spec : Sm.spec;
    all_stms : bool;
    expect_livelock : bool;
    jobs : int;
  }

  (* Seed and cm default to the shared flags', not [Storm.default]'s. *)
  let default =
    {
      spec = { Sm.default with Sm.cm = "backoff"; seed = 42 };
      all_stms = false;
      expect_livelock = false;
      jobs = 1;
    }

  let spec ?always =
    in_spec ?always ~outer:((fun t -> t.spec), fun t spec -> { t with spec })

  let fields =
    [
      spec ~always:true stm_key
        (fun s -> s.Sm.stm) (fun s v -> { s with Sm.stm = v });
      field all_stms_key
        ~get:(fun t -> t.all_stms) ~set:(fun t v -> { t with all_stms = v });
      spec ~always:true cm_key
        (fun s -> s.Sm.cm) (fun s v -> { s with Sm.cm = v });
      spec ~always:true seed_key
        (fun s -> s.Sm.seed) (fun s v -> { s with Sm.seed = v });
      spec
        { threads_key with doc = "Simulated CPUs (paired; >= 2)." }
        (fun s -> s.Sm.nthreads) (fun s v -> { s with Sm.nthreads = v });
      spec
        (key [ "quota" ] Arg.int ~doc:"Commits each thread must reach.")
        (fun s -> s.Sm.quota) (fun s v -> { s with Sm.quota = v });
      spec
        (watchdog_key
           ~doc:
             "Arm the progress watchdog: livelock/starvation detection plus \
              the graceful-degradation ladder.")
        (fun s -> s.Sm.watchdog) (fun s v -> { s with Sm.watchdog = v });
      spec watchdog_window_key
        (fun s -> s.Sm.wd_window) (fun s v -> { s with Sm.wd_window = v });
      spec watchdog_retry_key
        (fun s -> s.Sm.wd_starve) (fun s v -> { s with Sm.wd_starve = v });
      spec watchdog_calm_key
        (fun s -> s.Sm.wd_calm) (fun s v -> { s with Sm.wd_calm = v });
      field
        (flag_key [ "expect-livelock" ]
           ~doc:
             "Assert the run livelocks: exit non-zero unless the watchdog \
              detected at least one zero-commit window (with --watchdog) or \
              some thread missed its quota (without).  The assertion only \
              applies to lock-array STMs; a single-seqlock STM (capability \
              lock_array = false) admits no hold-and-wait cycle, so it is \
              instead required to complete.")
        ~get:(fun t -> t.expect_livelock)
        ~set:(fun t v -> { t with expect_livelock = v });
      field jobs_key ~get:(fun t -> t.jobs) ~set:(fun t v -> { t with jobs = v });
    ]

  let term = term_of default fields
  let replay spec = replay_line "storm" ~default fields { default with spec }
end

module Serve = struct
  type t = {
    spec : Sv.spec;
    all_stms : bool;
    all_sheds : bool;
    seeds : int;
    metrics_csv : string option;
    periods : int;
    jobs : int;
    fault_seed : int option;
    fault_limit : int option;
  }

  (* The seed defaults to the shared flag's, not [Service.default]'s. *)
  let default =
    {
      spec = { Sv.default with Sv.seed = 42 };
      all_stms = false;
      all_sheds = false;
      seeds = 1;
      metrics_csv = None;
      periods = 8;
      jobs = 1;
      fault_seed = None;
      fault_limit = None;
    }

  let spec ?always =
    in_spec ?always ~outer:((fun t -> t.spec), fun t spec -> { t with spec })

  (* [--overload 0] (or below) means no overload: the arrival rate as-is. *)
  let overload_key =
    let parse s =
      Result.map
        (fun x -> if x > 0.0 then Some x else None)
        (Arg.conv_parser Arg.float s)
    in
    let zero = Option.value ~default:0.0 in
    key [ "overload" ] ~docv:"X"
      (Arg.conv (parse, fun ppf o -> Arg.conv_printer Arg.float ppf (zero o)))
      ~show:(fun o -> Tstm_util.Float_text.to_string (zero o))
      ~doc:
        "Replace the arrival base rate with $(docv) times the calibrated \
         closed-loop capacity (0 = use the --arrival rate as-is)."

  let real_key =
    flag_key [ "real" ]
      ~doc:
        "Serve on real domains instead of the simulator: the same engine in \
         wall-clock time, in-process, with worker domains.  Not with \
         --san, --watchdog or --jobs above 1."

  let fault_seed_key =
    some_key [ "fault-seed" ] ~docv:"S" Arg.int
      ~doc:
        "Arm a crash/OOM fault burst with seed $(docv) for the duration of \
         a --real run."

  let fault_limit_key =
    some_key [ "fault-limit" ] ~docv:"L" Arg.int
      ~doc:"Cap fired injections of the --real fault plan at $(docv)."

  let fields =
    [
      spec ~always:true stm_key
        (fun s -> s.Sv.stm) (fun s v -> { s with Sv.stm = v });
      spec ~always:true
        (key [ "shed" ] ~docv:"POLICY"
           (result_conv Sv.shed_of_string Sv.shed_to_string)
           ~doc:
             "Load-shedding policy: none, drop-newest, deadline (default) \
              or serialize-hot — each step keeps the previous one's \
              behaviour and adds its own.")
        (fun s -> s.Sv.shed) (fun s v -> { s with Sv.shed = v });
      spec ~always:true seed_key
        (fun s -> s.Sv.seed) (fun s v -> { s with Sv.seed = v });
      spec real_key
        (fun s -> s.Sv.kind = Tstm_runtime.Shm.Domains)
        (fun s v ->
          { s with Sv.kind = (if v then Domains else Simulated) });
      spec
        (key [ "backend" ] ~docv:"BACKEND"
           (result_conv Sv.backend_of_string Sv.backend_to_string)
           ~doc:
             "What the service serves: an integer-set structure (list, \
              rbtree, skiplist, hashset) or the multi-tenant vacation \
              reservation service.")
        (fun s -> s.Sv.backend) (fun s v -> { s with Sv.backend = v });
      spec
        (key [ "workers" ] Arg.int
           ~doc:"Dispatcher threads (simulated CPUs, or domains with --real).")
        (fun s -> s.Sv.workers) (fun s v -> { s with Sv.workers = v });
      spec
        (key [ "shards" ] Arg.int ~doc:"Admission queues / tenants.")
        (fun s -> s.Sv.shards) (fun s v -> { s with Sv.shards = v });
      spec
        (key [ "arrival" ] ~docv:"PROCESS"
           (result_conv Arrival.of_string Arrival.to_string)
           ~doc:
             "Arrival process: poisson:RATE, bursty:RATE:BOOST:PERIOD or \
              diurnal:RATE:PERIOD[:AMP] (sessions per second).")
        (fun s -> s.Sv.arrival) (fun s v -> { s with Sv.arrival = v });
      spec overload_key
        (fun s -> s.Sv.overload) (fun s v -> { s with Sv.overload = v });
      spec
        (key [ "session" ] Arg.int ~doc:"Requests per arriving session.")
        (fun s -> s.Sv.session) (fun s v -> { s with Sv.session = v });
      spec workload_key
        (fun s -> s.Sv.pattern) (fun s v -> { s with Sv.pattern = v });
      spec
        (float_key [ "horizon" ]
           ~doc:"Arrival window, seconds (virtual on the simulator).")
        (fun s -> s.Sv.horizon) (fun s v -> { s with Sv.horizon = v });
      spec
        (float_key [ "deadline" ]
           ~doc:"Per-request deadline, seconds (virtual on the simulator).")
        (fun s -> s.Sv.deadline) (fun s v -> { s with Sv.deadline = v });
      spec
        (key [ "budget" ] Arg.int
           ~doc:
             "Transaction attempts per request before it fails fast as \
              budget-exhausted.")
        (fun s -> s.Sv.retry_budget)
        (fun s v -> { s with Sv.retry_budget = v });
      spec
        (key [ "queue-cap" ] Arg.int
           ~doc:"Per-shard admission bound (ignored by --shed none).")
        (fun s -> s.Sv.queue_cap) (fun s v -> { s with Sv.queue_cap = v });
      spec
        (key [ "batch" ] Arg.int
           ~doc:"Requests dequeued from one shard at a time.")
        (fun s -> s.Sv.batch) (fun s v -> { s with Sv.batch = v });
      spec
        (watchdog_key
           ~doc:
             "Arm the progress watchdog (also felt by serialize-hot: a \
              degraded level turns every shard owner-only).")
        (fun s -> s.Sv.watchdog) (fun s v -> { s with Sv.watchdog = v });
      spec watchdog_window_key
        (fun s -> s.Sv.wd_window) (fun s v -> { s with Sv.wd_window = v });
      spec watchdog_retry_key
        (fun s -> s.Sv.wd_starve) (fun s v -> { s with Sv.wd_starve = v });
      spec watchdog_calm_key
        (fun s -> s.Sv.wd_calm) (fun s v -> { s with Sv.wd_calm = v });
      spec
        (flag_key [ "record" ]
           ~doc:
             "Record per-shard operation histories and run the \
              linearizability checker after drain (intset backends only).")
        (fun s -> s.Sv.record) (fun s v -> { s with Sv.record = v });
      spec san_key (fun s -> s.Sv.san) (fun s v -> { s with Sv.san = v });
      field all_stms_key
        ~get:(fun t -> t.all_stms) ~set:(fun t v -> { t with all_stms = v });
      field
        (flag_key [ "all-sheds" ]
           ~doc:"Run every shedding policy in ladder order (overrides --shed).")
        ~get:(fun t -> t.all_sheds) ~set:(fun t v -> { t with all_sheds = v });
      field
        (seeds_key ~doc:"Sweep service seeds 0..N-1 (1 = just --seed).")
        ~get:(fun t -> t.seeds) ~set:(fun t v -> { t with seeds = v });
      field metrics_csv_key
        ~get:(fun t -> t.metrics_csv)
        ~set:(fun t v -> { t with metrics_csv = v });
      field
        { periods_key with doc = "Slices in the per-period SLO table (--metrics-csv)." }
        ~get:(fun t -> t.periods) ~set:(fun t v -> { t with periods = v });
      field jobs_key ~get:(fun t -> t.jobs) ~set:(fun t v -> { t with jobs = v });
      field fault_seed_key
        ~get:(fun t -> t.fault_seed) ~set:(fun t v -> { t with fault_seed = v });
      field fault_limit_key
        ~get:(fun t -> t.fault_limit)
        ~set:(fun t v -> { t with fault_limit = v });
    ]

  let check t =
    let error fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt in
    let real = t.spec.Sv.kind = Tstm_runtime.Shm.Domains in
    match Sv.validate t.spec with
    | Error msg -> error "%s" msg
    | Ok () ->
        if real && t.jobs <> 1 then
          (* The fault plan is process-global: a --real run stays
             in-process. *)
          error "%s: a %s run stays in-process" (flag_name jobs_key)
            (flag_name real_key)
        else if (not real) && (t.fault_seed <> None || t.fault_limit <> None)
        then
          error "%s/%s require %s" (flag_name fault_seed_key)
            (flag_name fault_limit_key) (flag_name real_key)
        else if
          t.metrics_csv <> None && (t.all_stms || t.all_sheds || t.seeds > 1)
        then
          error "%s needs a single run (one stm/shed/seed)"
            (flag_name metrics_csv_key)
        else `Ok t

  let term = Term.(ret (const check $ term_of default fields))
  let replay spec = replay_line "serve" ~default fields { default with spec }
end

module Fault = struct
  type t = {
    spec : FR.spec;
    all_kinds : bool;
    seeds : int;
    all_stms : bool;
    expect_heal : bool;
  }

  let default =
    {
      spec = FR.default;
      all_kinds = false;
      seeds = 1;
      all_stms = false;
      expect_heal = false;
    }

  let all_kinds = FR.[ Crash; Hang; Oom ]

  let kinds t = if t.all_kinds then all_kinds else [ t.spec.FR.kind ]

  (* Every spec field is on every replay line; only the limit is optional. *)
  let spec key =
    in_spec ~always:true ~outer:((fun t -> t.spec), fun t spec -> { t with spec }) key

  (* [all] sweeps every kind, as --all-stms sweeps every STM. *)
  let kind_conv =
    Arg.enum
      (List.map (fun k -> (FR.kind_name k, Some k)) all_kinds
      @ [ ("all", None) ])

  let fields =
    [
      spec stm_key (fun s -> s.FR.stm) (fun s v -> { s with FR.stm = v });
      field ~always:true
        (key [ "kind" ] ~docv:"KIND" kind_conv
           ~doc:"Fault kind to arm: crash, hang, oom or all.")
        ~get:(fun t -> if t.all_kinds then None else Some t.spec.FR.kind)
        ~set:(fun t -> function
          | Some kind ->
              { t with all_kinds = false; spec = { t.spec with FR.kind } }
          | None -> { t with all_kinds = true });
      spec
        {
          structure_key with
          names = [ "structure" ];
          doc = "Structure under fault: list, rbtree, skiplist or hashset.";
        }
        (fun s -> s.FR.structure) (fun s v -> { s with FR.structure = v });
      spec
        (key [ "t"; "domains" ] Arg.int ~doc:"Worker domains (real hardware).")
        (fun s -> s.FR.domains) (fun s v -> { s with FR.domains = v });
      spec
        (ops_key ~doc:"Operations per worker job.")
        (fun s -> s.FR.per_thread) (fun s v -> { s with FR.per_thread = v });
      spec
        (key [ "initial" ] Arg.int ~doc:"Pre-populated structure size.")
        (fun s -> s.FR.initial_size) (fun s v -> { s with FR.initial_size = v });
      spec key_range_key
        (fun s -> s.FR.key_range) (fun s v -> { s with FR.key_range = v });
      spec
        (float_key [ "update" ] ~doc:"Update transaction share, percent.")
        (fun s -> s.FR.update_pct) (fun s v -> { s with FR.update_pct = v });
      spec seed_key (fun s -> s.FR.seed) (fun s v -> { s with FR.seed = v });
      field
        (some_key [ "limit" ] ~docv:"L" Arg.int
           ~doc:
             "Cap the number of fired injections (replaying a prior run's \
              schedule).")
        ~get:(fun t -> t.spec.FR.limit)
        ~set:(fun t v -> { t with spec = { t.spec with FR.limit = v } });
      field all_stms_key
        ~get:(fun t -> t.all_stms) ~set:(fun t v -> { t with all_stms = v });
      field
        (seeds_key
           ~doc:"Sweep fault-plan seeds SEED..SEED+N-1 (1 = just --seed).")
        ~get:(fun t -> t.seeds) ~set:(fun t v -> { t with seeds = v });
      field
        (flag_key [ "expect-heal" ]
           ~doc:
             "Assert the sweep exercised self-healing: exit non-zero unless \
              every run healed cleanly $(b,and) at least one injection \
              fired.")
        ~get:(fun t -> t.expect_heal) ~set:(fun t v -> { t with expect_heal = v });
    ]

  let term = term_of default fields
  let replay spec = replay_line "fault" ~default fields { default with spec }
end

(* ------------------------------------------------------------------ *)
(* Pooled execution with stderr progress                               *)
(* ------------------------------------------------------------------ *)

let report_progress (p : Pool.progress) =
  match p.Pool.status with
  | Progress.Started -> ()
  | status ->
      prerr_string
        (Progress.job_line ~rank:p.Pool.rank ~total:p.Pool.total
           ~attempt:p.Pool.attempt ~status ~elapsed:p.Pool.elapsed
           p.Pool.label
        ^ "\n");
      flush stderr

let report_failures failures =
  List.iter
    (fun (job, (f : Pool.failure)) ->
      prerr_string
        (Printf.sprintf "FAILED %s: %s (%d attempt%s)\n" (Job.label job)
           f.Pool.reason f.Pool.attempts
           (if f.Pool.attempts = 1 then "" else "s")))
    failures;
  flush stderr

let execute ?(jobs = 1) ?timeout ?retries ?sabotage (plan : Plan.t) =
  let t0 = Unix.gettimeofday () in
  let res =
    Plan.execute ~jobs ?timeout ?retries ~on_progress:report_progress
      ?sabotage plan
  in
  prerr_string
    (Progress.sweep_line ~jobs:(Array.length plan) ~workers:jobs
       ~failed:(List.length res.Plan.failures)
       ~elapsed:(Unix.gettimeofday () -. t0)
    ^ "\n");
  flush stderr;
  report_failures res.Plan.failures;
  res

(* ------------------------------------------------------------------ *)
(* CSV output                                                          *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let save_csv dir (o : F.output) =
  let name, contents =
    match o with
    | F.Table t -> (t.Tstm_util.Series.title, Tstm_util.Series.table_to_csv t)
    | F.Surface s ->
        (s.Tstm_util.Series.s_title, Tstm_util.Series.surface_to_csv s)
  in
  let path = Filename.concat dir (sanitize name ^ ".csv") in
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Figures driver                                                      *)
(* ------------------------------------------------------------------ *)

let run_figures ?csv ?(jobs = 1) ~profile ns =
  let plans = List.map (fun n -> (n, F.plan profile n)) ns in
  let plan =
    Array.concat
      (List.map
         (fun (n, cells) ->
           Array.map (fun cell -> Job.Figure_cell { fig = n; cell }) cells)
         plans)
  in
  let res = execute ~jobs plan in
  let cursor = ref 0 in
  List.iter
    (fun (n, cells) ->
      let k = Array.length cells in
      let slice = Array.sub res.Plan.outcomes !cursor k in
      cursor := !cursor + k;
      print_string
        (Printf.sprintf "--- Figure %d: %s [%s profile] ---\n" n (F.describe n)
           profile.F.label);
      let missing =
        Array.fold_left
          (fun acc o -> if o = None then acc + 1 else acc)
          0 slice
      in
      if missing = 0 then begin
        let values =
          Array.map
            (function
              | Some (Job.Cell_value v) -> v
              | _ -> invalid_arg "Cli.run_figures: non-cell outcome")
            slice
        in
        let outputs = F.assemble profile n values in
        List.iter F.print_output outputs;
        match csv with
        | Some dir ->
            ensure_dir dir;
            List.iter (save_csv dir) outputs;
            print_string (Printf.sprintf "(CSV written to %s/)\n\n" dir)
        | None -> print_newline ()
      end
      else
        print_string
          (Printf.sprintf "(figure %d incomplete: %d of %d cells failed)\n\n" n
             missing k))
    plans;
  flush stdout;
  Plan.ok res

(* ------------------------------------------------------------------ *)
(* Ablation driver                                                     *)
(* ------------------------------------------------------------------ *)

let run_ablation ?(jobs = 1) () =
  let plan = Plan.ablation () in
  let res = execute ~jobs plan in
  print_string (Tstm_harness.Ablation.header ^ "\n");
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Some (Job.Ablation_row row) ->
          print_string (Tstm_harness.Ablation.render row ^ "\n")
      | Some _ -> invalid_arg "Cli.run_ablation: non-ablation outcome"
      | None ->
          print_string
            (Printf.sprintf "(point failed: %s)\n" (Job.label plan.(i))))
    res.Plan.outcomes;
  print_newline ();
  flush stdout;
  Plan.ok res

(* ------------------------------------------------------------------ *)
(* Single points                                                       *)
(* ------------------------------------------------------------------ *)

let eval_point ?(jobs = 1) p =
  let res = execute ~jobs (Plan.point p) in
  match res.Plan.outcomes.(0) with
  | Some (Job.Point_outcome o) -> Ok o
  | Some _ -> invalid_arg "Cli.eval_point: non-point outcome"
  | None -> (
      match res.Plan.failures with
      | (_, f) :: _ -> Error f.Pool.reason
      | [] -> Error "job produced no outcome")

(* ------------------------------------------------------------------ *)
(* Wall-clock bench (real runtime)                                     *)
(* ------------------------------------------------------------------ *)

module BR = Tstm_harness.Bench_real
module Bench = Tstm_obs.Bench

let real_structure_arg =
  Arg.(
    value
    & opt string "rbtree"
    & info [ "s"; "structure" ] ~docv:"STRUCT"
        ~doc:
          "Benchmark target: list, rbtree, skiplist, hashset or vacation \
           (the STAMP-style travel-reservation workload).")

let domains_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4 ]
    & info [ "domains" ] ~docv:"LIST"
        ~doc:
          "Comma-separated domain counts to bench, one snapshot cell each \
           (e.g. 1,2,4).")

let reps_arg =
  Arg.(
    value & opt int 3
    & info [ "reps" ] ~docv:"N"
        ~doc:
          "Timed repetitions per cell; the snapshot records every sample \
           and the mean with a 95% confidence interval.")

let warmup_arg =
  Arg.(
    value & opt float 0.05
    & info [ "warmup" ] ~docv:"SECONDS"
        ~doc:"Untimed warmup before the repetitions (0 = none).")

let real_duration_arg =
  Arg.(
    value & opt float 0.2
    & info [ "d"; "duration" ] ~docv:"SECONDS"
        ~doc:"Wall-clock length of each timed repetition.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the machine-readable snapshot (BENCH_*.json) to $(docv).")

let observe_flag =
  Arg.(
    value & flag
    & info [ "observe" ]
        ~doc:
          "Record wall-clock commit/abort latency histograms during the \
           timed phases through a per-domain sharded sink (adds the \
           instrumented-path overhead to what is measured).")

let threshold_arg =
  Arg.(
    value & opt float 10.0
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:
          "Regression threshold: flag a cell only when its mean throughput \
           drops by more than $(docv) percent beyond the combined 95% \
           confidence intervals.")

let report_only_flag =
  Arg.(
    value & flag
    & info [ "report-only" ]
        ~doc:"Print the comparison but exit 0 even on regressions.")

let git_rev () =
  match
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l when l <> "" -> Some l
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  with
  | Some rev -> rev
  | None -> "unknown"

let run_bench_real ?out ~stms ~structure ~domains ~pattern ~size ~update_pct
    ~seed ~duration ~warmup ~reps ~observe () =
  let protocol =
    { BR.duration_s = duration; warmup_s = warmup; reps; observe }
  in
  let ok = ref true in
  let t0 = Unix.gettimeofday () in
  let cells =
    List.concat_map
      (fun stm ->
        List.filter_map
          (fun d ->
            prerr_string
              (Printf.sprintf "repro real: %s %s domains=%d (%d x %.3fs)...\n"
                 stm structure d reps duration);
            flush stderr;
            let req =
              {
                BR.stm;
                structure;
                domains = d;
                pattern;
                size;
                update_pct;
                seed;
              }
            in
            match BR.run_cell req protocol with
            | Error e ->
                prerr_string (Printf.sprintf "repro real: %s\n" e);
                flush stderr;
                ok := false;
                None
            | Ok (cell, integ) ->
                List.iter
                  (fun v ->
                    prerr_string
                      (Printf.sprintf
                         "repro real: INVARIANT VIOLATED (%s/%s d=%d): %s\n"
                         stm structure d v);
                    flush stderr;
                    ok := false)
                  integ.BR.violations;
                List.iter
                  (fun (rep, exn_s) ->
                    prerr_string
                      (Printf.sprintf
                         "repro real: FAILED REP %d (%s/%s d=%d): %s\n" rep
                         stm structure d exn_s);
                    flush stderr;
                    ok := false)
                  integ.BR.failed_reps;
                Some cell)
          domains)
      stms
  in
  if cells = [] then false
  else begin
    let snap =
      BR.snapshot ~rev:(git_rev ()) ~created_unix:(Unix.time ()) protocol
        cells
    in
    print_string (Bench.render snap);
    flush stdout;
    (match out with
    | Some path ->
        Bench.write ~path snap;
        prerr_string (Printf.sprintf "(snapshot written to %s)\n" path)
    | None -> ());
    prerr_string
      (Printf.sprintf "repro real: %d cell%s in %.1fs\n" (List.length cells)
         (if List.length cells = 1 then "" else "s")
         (Unix.gettimeofday () -. t0));
    flush stderr;
    !ok
  end

let run_bench_compare ~threshold ~report_only ~old_path ~new_path () =
  (* A snapshot that cannot be loaded (unreadable file, malformed JSON, or
     a newer schema than this binary understands) is a diagnostic, not a
     regression: say exactly what failed, and let --report-only still exit
     0 so an informational CI step never turns red on a format bump. *)
  let load path =
    match Bench.read ~path with
    | Ok snap -> Some snap
    | Error e ->
        prerr_string
          (Printf.sprintf
             "repro compare: cannot load %s: %s (comparison skipped)\n" path e);
        None
  in
  match (load old_path, load new_path) with
  | None, _ | _, None -> report_only
  | Some old_snap, Some new_snap ->
      let v = Bench.compare ~threshold_pct:threshold ~old_snap ~new_snap () in
      print_string (Bench.render_verdict v);
      flush stdout;
      report_only || v.Bench.regressions = 0

let eval_points ?(jobs = 1) points =
  let plan = Array.of_list (List.map (fun p -> Job.Point p) points) in
  let res = execute ~jobs plan in
  Array.map
    (function
      | Some (Job.Point_outcome o) -> Some o
      | Some _ -> invalid_arg "Cli.eval_points: non-point outcome"
      | None -> None)
    res.Plan.outcomes
