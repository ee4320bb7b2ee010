let add_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Json.escape b k;
      Buffer.add_string b "\":\"";
      Json.escape b v;
      Buffer.add_char b '"')
    args;
  Buffer.add_char b '}'

let chrome_trace ?(ghz = 2.0) (c : Sink.collector) =
  let b = Buffer.create 65536 in
  let us cycles = float_of_int cycles /. (ghz *. 1000.0) in
  let first = ref true in
  let event fmt =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n";
    Printf.ksprintf (Buffer.add_string b) fmt
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Array.iteri
    (fun cpu ring ->
      if Ring.length ring > 0 then begin
        event
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"cpu %d\"}}"
          cpu cpu;
        if Ring.dropped ring > 0 then
          event
            "{\"name\":\"ring_dropped\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":0.000,\"args\":{\"dropped\":\"%d\"}}"
            cpu (Ring.dropped ring);
        (* Pair each Tx_begin with the commit/abort that ends the attempt;
           a terminator whose begin was evicted becomes a zero-width slice. *)
        let pending = ref None in
        Ring.iter ring (fun { Ring.ts; cpu; ev } ->
            let slice t0 =
              let buf = Buffer.create 128 in
              add_args buf (Event.args ev);
              event
                "{\"name\":\"tx\",\"cat\":\"tx\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,%s}"
                cpu (us t0)
                (us (ts - t0))
                (Buffer.contents buf)
            in
            match ev with
            | Event.Tx_begin -> pending := Some ts
            | Event.Tx_commit _ | Event.Tx_abort _ ->
                let t0 = match !pending with Some t0 -> t0 | None -> ts in
                pending := None;
                slice t0
            | _ ->
                let buf = Buffer.create 64 in
                add_args buf (Event.args ev);
                event
                  "{\"name\":\"%s\",\"cat\":\"stm\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,%s}"
                  (Event.name ev) cpu (us ts) (Buffer.contents buf))
      end)
    c.Sink.rings;
  Buffer.add_string b "\n],\"otherData\":{\"clock_ghz\":\"";
  Printf.ksprintf (Buffer.add_string b) "%.3f" ghz;
  Buffer.add_string b "\",\"time_unit\":\"virtual us (cycles/ghz)\"}}\n";
  Buffer.contents b

let write_chrome_trace ?ghz ~path c =
  let oc = open_out path in
  output_string oc (chrome_trace ?ghz c);
  close_out oc

let top_contended ?(n = 10) (c : Sink.collector) =
  Format.asprintf "%a" (Contend.pp_top ~n) c.Sink.contend

let histo_summary (c : Sink.collector) =
  Format.asprintf
    "commit latency (cycles): %a@.abort latency  (cycles): %a@.retries/commit:          %a@.reads/commit:            %a@.writes/commit:           %a@."
    Histo.pp c.Sink.commit_latency Histo.pp c.Sink.abort_latency Histo.pp
    c.Sink.retries Histo.pp c.Sink.read_set Histo.pp c.Sink.write_set
