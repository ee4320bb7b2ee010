type structure = List | Rbtree | Skiplist | Hashset

let structure_to_string = function
  | List -> "list"
  | Rbtree -> "rbtree"
  | Skiplist -> "skiplist"
  | Hashset -> "hashset"

let structure_of_string = function
  | "list" -> Some List
  | "rbtree" -> Some Rbtree
  | "skiplist" -> Some Skiplist
  | "hashset" -> Some Hashset
  | _ -> None

(* Adversarial key/rate patterns.  [Uniform] is the paper's harness and the
   default; the others are robustness workloads engineered to concentrate
   contention (skew, hot spots) or to starve particular threads (long
   readers, asymmetric rates).  All are deterministic functions of the
   per-thread RNG, so every pattern replays bit-identically from a seed. *)
type pattern =
  | Uniform
  | Zipf of float
  | Hotspot of int
  | Bimodal of int
  | Asym of float

let pattern_to_string = function
  | Uniform -> "uniform"
  | Zipf theta -> "zipf:" ^ Tstm_util.Float_text.to_string theta
  | Hotspot n -> Printf.sprintf "hotspot:%d" n
  | Bimodal span -> Printf.sprintf "bimodal:%d" span
  | Asym f -> "rates:" ^ Tstm_util.Float_text.to_string f

let pattern_of_string s =
  let base, arg =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let float_arg () = Option.bind arg float_of_string_opt in
  let int_arg () = Option.bind arg int_of_string_opt in
  match base with
  | "uniform" -> ( match arg with None -> Ok Uniform | Some _ -> Error "uniform takes no argument")
  | "zipf" -> (
      (* [float_of_string] accepts "inf"/"nan"; a non-finite theta would
         poison the CDF, so reject it like any other malformed argument. *)
      match float_arg () with
      | Some theta when Float.is_finite theta && theta > 0.0 -> Ok (Zipf theta)
      | _ -> Error "zipf:THETA needs a positive finite float (e.g. zipf:1.2)")
  | "hotspot" -> (
      match int_arg () with
      | Some n when n >= 1 -> Ok (Hotspot n)
      | _ -> Error "hotspot:N needs a positive integer (e.g. hotspot:4)")
  | "bimodal" -> (
      match int_arg () with
      | Some span when span >= 1 -> Ok (Bimodal span)
      | _ -> Error "bimodal:SPAN needs a positive integer (e.g. bimodal:8)")
  | "rates" -> (
      match float_arg () with
      | Some f when Float.is_finite f && f >= 1.0 -> Ok (Asym f)
      | _ -> Error "rates:F needs a finite float >= 1 (e.g. rates:2.0)")
  | _ ->
      Error
        (Printf.sprintf
           "unknown workload pattern %S (known: uniform, zipf:THETA, \
            hotspot:N, bimodal:SPAN, rates:F)" s)

(* Key generator for a pattern.  The [Uniform] closure must consume exactly
   one [Xrand.int] per key — the historical stream — so default-pattern runs
   stay byte-identical. *)
let key_gen pattern ~key_range =
  match pattern with
  | Uniform | Bimodal _ | Asym _ ->
      fun g -> 1 + Tstm_util.Xrand.int g key_range
  | Hotspot n ->
      let hot = min n key_range in
      fun g ->
        if Tstm_util.Xrand.float g < 0.9 then 1 + Tstm_util.Xrand.int g hot
        else 1 + Tstm_util.Xrand.int g key_range
  | Zipf theta ->
      (* Inverse-CDF sampling over [1, key_range] with weight 1/k^theta. *)
      let cdf = Array.make key_range 0.0 in
      let total = ref 0.0 in
      for k = 0 to key_range - 1 do
        total := !total +. (1.0 /. (float_of_int (k + 1) ** theta));
        cdf.(k) <- !total
      done;
      let total = !total in
      fun g ->
        let u = Tstm_util.Xrand.float g *. total in
        let lo = ref 0 and hi = ref (key_range - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        !lo + 1

(* Long-reader span for [tid] under the pattern: even threads of a bimodal
   mix run scan transactions of that many lookups; 0 = normal mix. *)
let reader_span pattern ~tid =
  match pattern with
  | Bimodal span when tid land 1 = 0 -> span
  | _ -> 0

(* Extra think-time (local cycles) charged between transactions: odd
   threads of an asymmetric mix run slower by the given factor. *)
let idle_cycles pattern ~tid =
  match pattern with
  | Asym f when tid land 1 = 1 -> int_of_float ((f -. 1.0) *. 500.0)
  | _ -> 0

type spec = {
  structure : structure;
  initial_size : int;
  key_range : int;
  update_pct : float;
  overwrite_pct : float;
  nthreads : int;
  duration : float;
  seed : int;
  pattern : pattern;
}

let default =
  {
    structure = List;
    initial_size = 256;
    key_range = 512;
    update_pct = 20.0;
    overwrite_pct = 0.0;
    nthreads = 4;
    duration = 0.005;
    seed = 42;
    pattern = Uniform;
  }

let make ?(structure = default.structure) ?(initial_size = default.initial_size)
    ?key_range ?(update_pct = default.update_pct)
    ?(overwrite_pct = default.overwrite_pct) ?(nthreads = default.nthreads)
    ?(duration = default.duration) ?(seed = default.seed)
    ?(pattern = default.pattern) () =
  let key_range =
    match key_range with Some r -> r | None -> 2 * initial_size
  in
  if initial_size < 1 then invalid_arg "Workload.make: initial_size < 1";
  if key_range <= initial_size then
    invalid_arg "Workload.make: key_range must exceed initial_size";
  if update_pct < 0.0 || overwrite_pct < 0.0
     || update_pct +. overwrite_pct > 100.0
  then invalid_arg "Workload.make: bad transaction mix";
  if nthreads < 1 then invalid_arg "Workload.make: nthreads < 1";
  if duration <= 0.0 then invalid_arg "Workload.make: duration <= 0";
  {
    structure;
    initial_size;
    key_range;
    update_pct;
    overwrite_pct;
    nthreads;
    duration;
    seed;
    pattern;
  }

(* Words per element: list and hash-set nodes are [value; next] pairs, a
   red-black node is [Rbtree.node_words]; skip-list nodes run up to the
   19-word tower and one size class never reuses another's blocks, so they
   keep 24. *)
let node_words = function
  | List | Hashset -> 2
  | Rbtree -> Tstm_structures.Rbtree.node_words
  | Skiplist -> 24

let arena_words structure ~elements ~nthreads =
  ((elements + (8 * nthreads) + 64) * node_words structure) + 512

let memory_words_for spec =
  arena_words spec.structure ~elements:spec.initial_size
    ~nthreads:spec.nthreads

type result = {
  commits : int;
  aborts : int;
  throughput : float;
  abort_rate : float;
  stats : Tstm_tm.Tm_stats.t;
  elapsed : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%.0f txs/s (%d commits, %d aborts in %.4fs)"
    r.throughput r.commits r.aborts r.elapsed
