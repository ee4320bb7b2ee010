(** Exporters over a {!Sink.collector}: Chrome trace-event JSON (loadable in
    Perfetto / [chrome://tracing]), a pretty contention report, and a
    histogram summary.  Trace strings go through {!Json.escape}, and
    {!Json.of_string} is the one JSON reader that checks what these
    exporters write.

    Virtual-time mapping: Chrome traces use microseconds; we emit
    [ts_us = cycles / (ghz * 1000)], so with the default 2 GHz cost model
    one Perfetto microsecond equals 2000 virtual cycles — i.e. the Perfetto
    time axis reads directly as simulated wall time. *)

val chrome_trace : ?ghz:float -> Sink.collector -> string
(** JSON string in the Chrome trace-event format: one track (tid) per CPU;
    transactions as duration slices named ["tx"] annotated with their
    outcome, abort reason and retry count; everything else as instant
    events.  [ghz] defaults to [2.0].  Deterministic: two identical
    simulated runs produce byte-identical traces. *)

val write_chrome_trace : ?ghz:float -> path:string -> Sink.collector -> unit

val top_contended : ?n:int -> Sink.collector -> string
(** Pretty top-[n] (default 10) contended-cache-lines report. *)

val histo_summary : Sink.collector -> string
(** One line per histogram: commit/abort latency, retries, set sizes. *)
