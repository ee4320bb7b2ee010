type abort_reason =
  | Read_conflict
  | Write_conflict
  | Validation_failed
  | Rollover
  | Killed
  | Alloc_failed

let abort_reason_to_string = function
  | Read_conflict -> "read-conflict"
  | Write_conflict -> "write-conflict"
  | Validation_failed -> "validation"
  | Rollover -> "rollover"
  | Killed -> "killed"
  | Alloc_failed -> "alloc-failed"

let retry_hist_buckets = 16

(* Bucket 0 = committed first try; bucket k>=1 covers retry counts in
   [2^(k-1), 2^k), saturating in the last bucket. *)
let retry_bucket retries =
  if retries <= 0 then 0
  else begin
    let k = ref 1 in
    while retries lsr !k > 0 && !k < retry_hist_buckets - 1 do
      incr k
    done;
    !k
  end

type t = {
  mutable commits : int;
  mutable commits_read_only : int;
  mutable aborts_read_conflict : int;
  mutable aborts_write_conflict : int;
  mutable aborts_validation : int;
  mutable aborts_rollover : int;
  mutable reads : int;
  mutable writes : int;
  mutable extensions : int;
  mutable validations : int;
  mutable val_locks_processed : int;
  mutable val_locks_skipped : int;
  mutable escalations : int;
  mutable backoff_cycles : int;
  mutable aborts_killed : int;
  mutable aborts_alloc : int;
  mutable faults_crash : int;
  mutable faults_hang : int;
  mutable max_retries_seen : int;
  mutable cm_switches : int;
  retry_hist : int array;
}

let create () =
  {
    commits = 0;
    commits_read_only = 0;
    aborts_read_conflict = 0;
    aborts_write_conflict = 0;
    aborts_validation = 0;
    aborts_rollover = 0;
    reads = 0;
    writes = 0;
    extensions = 0;
    validations = 0;
    val_locks_processed = 0;
    val_locks_skipped = 0;
    escalations = 0;
    backoff_cycles = 0;
    aborts_killed = 0;
    aborts_alloc = 0;
    faults_crash = 0;
    faults_hang = 0;
    max_retries_seen = 0;
    cm_switches = 0;
    retry_hist = Array.make retry_hist_buckets 0;
  }

let reset t =
  t.commits <- 0;
  t.commits_read_only <- 0;
  t.aborts_read_conflict <- 0;
  t.aborts_write_conflict <- 0;
  t.aborts_validation <- 0;
  t.aborts_rollover <- 0;
  t.reads <- 0;
  t.writes <- 0;
  t.extensions <- 0;
  t.validations <- 0;
  t.val_locks_processed <- 0;
  t.val_locks_skipped <- 0;
  t.escalations <- 0;
  t.backoff_cycles <- 0;
  t.aborts_killed <- 0;
  t.aborts_alloc <- 0;
  t.faults_crash <- 0;
  t.faults_hang <- 0;
  t.max_retries_seen <- 0;
  t.cm_switches <- 0;
  Array.fill t.retry_hist 0 retry_hist_buckets 0

let aborts t =
  t.aborts_read_conflict + t.aborts_write_conflict + t.aborts_validation
  + t.aborts_rollover + t.aborts_killed + t.aborts_alloc

let record_abort t = function
  | Read_conflict -> t.aborts_read_conflict <- t.aborts_read_conflict + 1
  | Write_conflict -> t.aborts_write_conflict <- t.aborts_write_conflict + 1
  | Validation_failed -> t.aborts_validation <- t.aborts_validation + 1
  | Rollover -> t.aborts_rollover <- t.aborts_rollover + 1
  | Killed -> t.aborts_killed <- t.aborts_killed + 1
  | Alloc_failed -> t.aborts_alloc <- t.aborts_alloc + 1

let record_retries t retries =
  if retries > t.max_retries_seen then t.max_retries_seen <- retries;
  let b = retry_bucket retries in
  t.retry_hist.(b) <- t.retry_hist.(b) + 1

let add_into ~dst t =
  dst.commits <- dst.commits + t.commits;
  dst.commits_read_only <- dst.commits_read_only + t.commits_read_only;
  dst.aborts_read_conflict <- dst.aborts_read_conflict + t.aborts_read_conflict;
  dst.aborts_write_conflict <-
    dst.aborts_write_conflict + t.aborts_write_conflict;
  dst.aborts_validation <- dst.aborts_validation + t.aborts_validation;
  dst.aborts_rollover <- dst.aborts_rollover + t.aborts_rollover;
  dst.reads <- dst.reads + t.reads;
  dst.writes <- dst.writes + t.writes;
  dst.extensions <- dst.extensions + t.extensions;
  dst.validations <- dst.validations + t.validations;
  dst.val_locks_processed <- dst.val_locks_processed + t.val_locks_processed;
  dst.val_locks_skipped <- dst.val_locks_skipped + t.val_locks_skipped;
  dst.escalations <- dst.escalations + t.escalations;
  dst.backoff_cycles <- dst.backoff_cycles + t.backoff_cycles;
  dst.aborts_killed <- dst.aborts_killed + t.aborts_killed;
  dst.aborts_alloc <- dst.aborts_alloc + t.aborts_alloc;
  dst.faults_crash <- dst.faults_crash + t.faults_crash;
  dst.faults_hang <- dst.faults_hang + t.faults_hang;
  if t.max_retries_seen > dst.max_retries_seen then
    dst.max_retries_seen <- t.max_retries_seen;
  dst.cm_switches <- dst.cm_switches + t.cm_switches;
  for i = 0 to retry_hist_buckets - 1 do
    dst.retry_hist.(i) <- dst.retry_hist.(i) + t.retry_hist.(i)
  done

let copy t =
  let c = create () in
  add_into ~dst:c t;
  c

let abort_rate_pct t =
  let attempts = t.commits + aborts t in
  if attempts = 0 then 0.0
  else 100.0 *. float_of_int (aborts t) /. float_of_int attempts

let per_commit n t =
  if t.commits = 0 then 0.0 else float_of_int n /. float_of_int t.commits

let reads_per_commit t = per_commit t.reads t
let writes_per_commit t = per_commit t.writes t

module Json = Tstm_obs.Json

let to_json t =
  Json.Obj
    [
      ("commits", Json.Int t.commits);
      ("commits_read_only", Json.Int t.commits_read_only);
      ("aborts_read_conflict", Json.Int t.aborts_read_conflict);
      ("aborts_write_conflict", Json.Int t.aborts_write_conflict);
      ("aborts_validation", Json.Int t.aborts_validation);
      ("aborts_rollover", Json.Int t.aborts_rollover);
      ("aborts_killed", Json.Int t.aborts_killed);
      ("aborts_alloc", Json.Int t.aborts_alloc);
      ("faults_crash", Json.Int t.faults_crash);
      ("faults_hang", Json.Int t.faults_hang);
      ("reads", Json.Int t.reads);
      ("writes", Json.Int t.writes);
      ("extensions", Json.Int t.extensions);
      ("validations", Json.Int t.validations);
      ("val_locks_processed", Json.Int t.val_locks_processed);
      ("val_locks_skipped", Json.Int t.val_locks_skipped);
      ("escalations", Json.Int t.escalations);
      ("backoff_cycles", Json.Int t.backoff_cycles);
      ("max_retries_seen", Json.Int t.max_retries_seen);
      ("cm_switches", Json.Int t.cm_switches);
      ( "retry_hist",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) t.retry_hist))
      );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "Tm_stats.of_json: missing int field %S" k)
  in
  (* Fields added after a snapshot schema has been published parse as 0
     when absent, so older BENCH_*.json baselines keep loading. *)
  let int0 k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some n -> Ok n
    | None -> Ok 0
  in
  let* commits = int "commits" in
  let* commits_read_only = int "commits_read_only" in
  let* aborts_read_conflict = int "aborts_read_conflict" in
  let* aborts_write_conflict = int "aborts_write_conflict" in
  let* aborts_validation = int "aborts_validation" in
  let* aborts_rollover = int "aborts_rollover" in
  let* aborts_killed = int "aborts_killed" in
  let* aborts_alloc = int0 "aborts_alloc" in
  let* faults_crash = int0 "faults_crash" in
  let* faults_hang = int0 "faults_hang" in
  let* reads = int "reads" in
  let* writes = int "writes" in
  let* extensions = int "extensions" in
  let* validations = int "validations" in
  let* val_locks_processed = int "val_locks_processed" in
  let* val_locks_skipped = int "val_locks_skipped" in
  let* escalations = int "escalations" in
  let* backoff_cycles = int "backoff_cycles" in
  let* max_retries_seen = int "max_retries_seen" in
  let* cm_switches = int "cm_switches" in
  let* hist =
    match Option.bind (Json.member "retry_hist" j) Json.to_list with
    | None -> Error "Tm_stats.of_json: missing list field \"retry_hist\""
    | Some elems ->
        let rec ints acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest -> (
              match Json.to_int e with
              | Some n -> ints (n :: acc) rest
              | None -> Error "Tm_stats.of_json: non-int in retry_hist")
        in
        ints [] elems
  in
  let t = create () in
  t.commits <- commits;
  t.commits_read_only <- commits_read_only;
  t.aborts_read_conflict <- aborts_read_conflict;
  t.aborts_write_conflict <- aborts_write_conflict;
  t.aborts_validation <- aborts_validation;
  t.aborts_rollover <- aborts_rollover;
  t.aborts_killed <- aborts_killed;
  t.aborts_alloc <- aborts_alloc;
  t.faults_crash <- faults_crash;
  t.faults_hang <- faults_hang;
  t.reads <- reads;
  t.writes <- writes;
  t.extensions <- extensions;
  t.validations <- validations;
  t.val_locks_processed <- val_locks_processed;
  t.val_locks_skipped <- val_locks_skipped;
  t.escalations <- escalations;
  t.backoff_cycles <- backoff_cycles;
  t.max_retries_seen <- max_retries_seen;
  t.cm_switches <- cm_switches;
  List.iteri
    (fun i n -> if i < retry_hist_buckets then t.retry_hist.(i) <- n)
    hist;
  Ok t

let pp_retry_hist ppf t =
  let last =
    let i = ref (retry_hist_buckets - 1) in
    while !i > 0 && t.retry_hist.(!i) = 0 do
      decr i
    done;
    !i
  in
  for i = 0 to last do
    Format.fprintf ppf "%s%d" (if i = 0 then "" else "/") t.retry_hist.(i)
  done

let pp ppf t =
  Format.fprintf ppf
    "commits=%d (ro=%d) aborts=%d [rc=%d wc=%d val=%d roll=%d kill=%d \
     alloc=%d] reads=%d writes=%d ext=%d validations=%d val-locks \
     processed=%d skipped=%d escalations=%d backoff-cycles=%d \
     max-retries=%d cm-switches=%d retry-hist=%a | abort-rate=%.1f%% \
     reads/commit=%.1f writes/commit=%.1f"
    t.commits t.commits_read_only (aborts t) t.aborts_read_conflict
    t.aborts_write_conflict t.aborts_validation t.aborts_rollover
    t.aborts_killed t.aborts_alloc t.reads t.writes t.extensions t.validations
    t.val_locks_processed t.val_locks_skipped t.escalations t.backoff_cycles
    t.max_retries_seen t.cm_switches pp_retry_hist t (abort_rate_pct t)
    (reads_per_commit t) (writes_per_commit t);
  if t.faults_crash + t.faults_hang > 0 then
    Format.fprintf ppf " faults[crash=%d hang=%d]" t.faults_crash
      t.faults_hang
