type params = {
  clock_ghz : float;
  words_per_line : int;
  read_hit : int;
  write_hit : int;
  cas_extra : int;
  l1_lines : int;
  l1_miss : int;
  line_transfer : int;
  private_cache_lines : int;
}

let default =
  {
    clock_ghz = 2.0;
    words_per_line = 8;
    read_hit = 3;
    write_hit = 3;
    cas_extra = 20;
    l1_lines = 512;
    l1_miss = 11;
    line_transfer = 100;
    private_cache_lines = 16384;
  }

let validate p =
  if not (Tstm_util.Bitops.is_pow2 p.words_per_line) then
    invalid_arg "Cache_model: words_per_line must be a power of two";
  if not (Tstm_util.Bitops.is_pow2 p.private_cache_lines) then
    invalid_arg "Cache_model: private_cache_lines must be a power of two";
  if not (Tstm_util.Bitops.is_pow2 p.l1_lines) then
    invalid_arg "Cache_model: l1_lines must be a power of two";
  if p.l1_lines < 8 then
    invalid_arg "Cache_model: l1_lines must be at least 8 (one set of 8 ways)";
  if p.l1_lines > p.private_cache_lines then
    invalid_arg "Cache_model: l1_lines must not exceed private_cache_lines";
  if p.l1_miss < 0 then invalid_arg "Cache_model: negative cost";
  if p.clock_ghz <= 0.0 then invalid_arg "Cache_model: clock_ghz <= 0";
  if p.read_hit < 0 || p.write_hit < 0 || p.cas_extra < 0 || p.line_transfer < 0
  then invalid_arg "Cache_model: negative cost"

(* The sharer mask is a 63-bit int with one bit per CPU. *)
let max_cpus = 63

(* Tag stores and line records live in [Bytes] slots sized to what they
   hold.  Line ids and word indices must fit a signed 32-bit slot; -1 marks
   an empty way or a line nobody stored to. *)
let max_id = Int32.to_int Int32.max_int

type global = {
  params : params;
  tags : Bytes.t array;  (* per CPU: L2 tags, 32-bit slots *)
  l1_tags : Bytes.t array;  (* per CPU: L1 tags, 32-bit slots *)
  mutable next_base : int;  (* allocator for global line ids *)
}

let create_global params =
  validate params;
  {
    params;
    tags = Array.make max_cpus Bytes.empty;
    l1_tags = Array.make max_cpus Bytes.empty;
    next_base = 1;
  }

let reset_tags g =
  let empty t = Bytes.fill t 0 (Bytes.length t) '\255' in
  Array.iter empty g.tags;
  Array.iter empty g.l1_tags

(* One 16-byte record per line: the last exclusive writer (int8, -1 = none)
   at 0, the word index of the last store (int32, -1 = none) at 4, and the
   bitmask of CPUs that may hold a copy (int64) at 8. *)
let record = 16

type t = {
  g : global;
  line_shift : int;
  base : int;  (* global id of this array's line 0 *)
  lines : Bytes.t;  (* one [record] per line *)
  mutable label : string option;  (* observability name; None = unattributed *)
}

let owner t line = Bytes.get_int8 t.lines (line * record)
let set_owner t line cpu = Bytes.set_int8 t.lines (line * record) cpu

let last_word t line =
  Int32.to_int (Bytes.get_int32_ne t.lines ((line * record) + 4))

let set_last_word t line index =
  Bytes.set_int32_ne t.lines ((line * record) + 4) (Int32.of_int index)

let sharers t line =
  Int64.to_int (Bytes.get_int64_ne t.lines ((line * record) + 8))

let set_sharers t line mask =
  Bytes.set_int64_ne t.lines ((line * record) + 8) (Int64.of_int mask)

let create g len =
  let p = g.params in
  let line_shift = Tstm_util.Bitops.log2 p.words_per_line in
  if len < 0 || len > max_id then
    invalid_arg "Cache_model.create: length does not fit 32 bits";
  let lines = (len lsr line_shift) + 1 in
  let base = g.next_base in
  if base + lines > max_id then
    invalid_arg "Cache_model.create: line ids exhausted (32 bits)";
  g.next_base <- base + lines;
  let t =
    { g; line_shift; base; lines = Bytes.make (lines * record) '\255';
      label = None }
  in
  for line = 0 to lines - 1 do
    set_sharers t line 0
  done;
  t

let set_label t label = t.label <- Some label

(* Report a coherence transfer to the observability sink, separating true
   word conflicts from false sharing via the line's last-stored word.  Only
   called on transfers caused by another CPU's copy (not cold misses or
   capacity refills), and only when tracing is enabled — it never charges
   cycles, so traced and untraced runs are identical. *)
let note_transfer t ~cpu ~line ~index =
  match t.label with
  | None -> ()
  | Some label ->
      Tstm_obs.Sink.note_transfer ~ts:(Sim_sched.now_cycles ()) ~cpu ~label
        ~line ~word:index
        ~same_word:(last_word t line = index)

(* Both cache levels are 8-way set-associative with round-robin replacement
   (a direct-mapped model suffers pathological aliasing whenever an array's
   size is close to the cache span, which no real set-associative cache
   does).  Tag layout: [sets * ways] 32-bit tags plus one replacement cursor
   per set, flattened per CPU. *)
let ways = 8

let tag tags i = Int32.to_int (Bytes.get_int32_ne tags (i lsl 2))
let set_tag tags i v = Bytes.set_int32_ne tags (i lsl 2) (Int32.of_int v)

(* A CPU's tag store for a cache of [lines] lines, made on first use:
   [ways] tags + 1 round-robin cursor per set, all empty. *)
let cpu_store stores lines cpu =
  let t = stores.(cpu) in
  if Bytes.length t > 0 then t
  else begin
    let t = Bytes.make (lines / ways * (ways + 1) * 4) '\255' in
    stores.(cpu) <- t;
    t
  end

let cpu_tags g cpu = cpu_store g.tags g.params.private_cache_lines cpu
let cpu_l1_tags g cpu = cpu_store g.l1_tags g.params.l1_lines cpu

(* Top level, so a probe allocates no closure. *)
let rec probe_ways tags base gline i =
  i < ways && (tag tags (base + i) = gline || probe_ways tags base gline (i + 1))

let probe tags n_sets gline =
  probe_ways tags ((gline land (n_sets - 1)) * (ways + 1)) gline 0

let install tags n_sets gline =
  let base = (gline land (n_sets - 1)) * (ways + 1) in
  if not (probe tags n_sets gline) then begin
    let cursor = (tag tags (base + ways) + 1) land (ways - 1) in
    set_tag tags (base + cursor) gline;
    set_tag tags (base + ways) cursor
  end

let resident g cpu gline =
  probe (cpu_tags g cpu) (g.params.private_cache_lines / ways) gline

let in_l1 g cpu gline =
  probe (cpu_l1_tags g cpu) (g.params.l1_lines / ways) gline

let touch g cpu gline =
  install (cpu_tags g cpu) (g.params.private_cache_lines / ways) gline;
  install (cpu_l1_tags g cpu) (g.params.l1_lines / ways) gline

(* A resident (L2) access costs extra when the line fell out of L1. *)
let level_cost g cpu gline =
  if in_l1 g cpu gline then 0
  else begin
    install (cpu_l1_tags g cpu) (g.params.l1_lines / ways) gline;
    g.params.l1_miss
  end

let read_cost t ~cpu ~index =
  let p = t.g.params in
  let line = index lsr t.line_shift in
  let gline = t.base + line in
  let bit = 1 lsl cpu in
  let owner = owner t line in
  if owner >= 0 && owner <> cpu then begin
    (* Dirty in another CPU's cache: transfer and downgrade to shared. *)
    if Tstm_obs.Sink.enabled () then note_transfer t ~cpu ~line ~index;
    set_owner t line (-1);
    set_sharers t line (sharers t line lor bit lor (1 lsl owner));
    touch t.g cpu gline;
    p.read_hit + p.line_transfer
  end
  else if sharers t line land bit <> 0 && resident t.g cpu gline then
    p.read_hit + level_cost t.g cpu gline
  else begin
    (* Cold, invalidated or capacity/conflict-evicted: refill. *)
    set_sharers t line (sharers t line lor bit);
    touch t.g cpu gline;
    p.read_hit + p.line_transfer
  end

let write_cost t ~cpu ~index =
  let p = t.g.params in
  let line = index lsr t.line_shift in
  let gline = t.base + line in
  let bit = 1 lsl cpu in
  let cost =
    if owner t line = cpu && resident t.g cpu gline then
      p.write_hit + level_cost t.g cpu gline
    else if sharers t line = bit && resident t.g cpu gline then begin
      (* Sole resident sharer: silent upgrade to exclusive. *)
      set_owner t line cpu;
      p.write_hit + level_cost t.g cpu gline
    end
    else begin
      (* Fetch exclusive ownership and invalidate every other copy.  When
         another CPU held a dirty or shared copy this is contention, not a
         cold miss, and gets attributed. *)
      if
        Tstm_obs.Sink.enabled ()
        && ((owner t line >= 0 && owner t line <> cpu)
           || sharers t line land lnot bit <> 0)
      then note_transfer t ~cpu ~line ~index;
      set_owner t line cpu;
      set_sharers t line bit;
      touch t.g cpu gline;
      p.write_hit + p.line_transfer
    end
  in
  set_last_word t line index;
  cost
