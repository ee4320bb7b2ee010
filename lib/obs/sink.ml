type collector = {
  rings : Ring.t array;
  contend : Contend.t;
  commit_latency : Histo.t;
  abort_latency : Histo.t;
  retries : Histo.t;
  read_set : Histo.t;
  write_set : Histo.t;
}

type t = Null | Collect of collector | Sharded of collector array

(* Per-CPU trace rings per collector, and shards per sharded sink: events
   and notes from a cpu or domain id at or past this bound are dropped.  It
   covers the simulator's 63 CPUs ([Cache_model.max_cpus]); the
   real-hardware bench refuses an observed cell with more domains. *)
let max_cpus = 64

let collector ?ring_capacity () =
  {
    rings = Array.init max_cpus (fun _ -> Ring.create ?capacity:ring_capacity ());
    contend = Contend.create ();
    commit_latency = Histo.create ();
    abort_latency = Histo.create ();
    retries = Histo.create ();
    read_set = Histo.create ();
    write_set = Histo.create ();
  }

(* A [Sharded] sink holds one collector per domain: each domain writes
   only its own shard, so recording stays plain mutable arithmetic — no
   atomics, no locks, no allocation — and remains race-free under true
   parallelism.  Shards are merged after the domains have joined. *)
let merged shards =
  let dst = collector () in
  Array.iteri
    (fun i c ->
      (* Domain [i] only ever touches its own shard (and stamps its own
         cpu id), so taking ring [i] of shard [i] loses nothing. *)
      dst.rings.(i) <- c.rings.(i);
      Histo.merge ~dst:dst.commit_latency c.commit_latency;
      Histo.merge ~dst:dst.abort_latency c.abort_latency;
      Histo.merge ~dst:dst.retries c.retries;
      Histo.merge ~dst:dst.read_set c.read_set;
      Histo.merge ~dst:dst.write_set c.write_set)
    shards;
  dst

let sink = ref Null

(* [active] duplicates the Null/non-Null distinction as one mutable bool so
   the hot-path guard is a single load and compare. *)
let active = ref false

let install s =
  sink := s;
  active := (match s with Null -> false | Collect _ | Sharded _ -> true);
  Tstm_util.Gate.set Tstm_util.Gate.Sink !active

let current () = !sink
let enabled () = !active

let with_sink s f =
  let prev = !sink in
  install s;
  Fun.protect ~finally:(fun () -> install prev) f

let shard_of shards cpu =
  if cpu >= 0 && cpu < Array.length shards then Some shards.(cpu) else None

let emit ~ts ~cpu ev =
  match !sink with
  | Null -> ()
  | Collect c ->
      if cpu >= 0 && cpu < Array.length c.rings then
        Ring.push c.rings.(cpu) { Ring.ts; cpu; ev }
  | Sharded shards -> (
      match shard_of shards cpu with
      | Some c -> Ring.push c.rings.(cpu) { Ring.ts; cpu; ev }
      | None -> ())

let note_histos c ~lat ~retries ~reads ~writes =
  Histo.record c.commit_latency lat;
  Histo.record c.retries retries;
  Histo.record c.read_set reads;
  Histo.record c.write_set writes

let note_commit ~cpu ~lat ~retries ~reads ~writes =
  match !sink with
  | Null -> ()
  | Collect c -> note_histos c ~lat ~retries ~reads ~writes
  | Sharded shards -> (
      match shard_of shards cpu with
      | Some c -> note_histos c ~lat ~retries ~reads ~writes
      | None -> ())

let note_abort ~cpu ~lat =
  match !sink with
  | Null -> ()
  | Collect c -> Histo.record c.abort_latency lat
  | Sharded shards -> (
      match shard_of shards cpu with
      | Some c -> Histo.record c.abort_latency lat
      | None -> ())

let note_transfer ~ts ~cpu ~label ~line ~word ~same_word =
  match !sink with
  | Null -> ()
  | Collect c ->
      Contend.record c.contend ~label ~line ~same_word;
      if cpu >= 0 && cpu < Array.length c.rings then
        Ring.push c.rings.(cpu)
          { Ring.ts; cpu; ev = Event.Cache_transfer { label; line; word; same_word } }
  | Sharded shards -> (
      (* Only the simulated cache model emits transfers; on the real path
         this never fires, but shard it correctly anyway. *)
      match shard_of shards cpu with
      | Some c ->
          Contend.record c.contend ~label ~line ~same_word;
          Ring.push c.rings.(cpu)
            { Ring.ts; cpu; ev = Event.Cache_transfer { label; line; word; same_word } }
      | None -> ())
