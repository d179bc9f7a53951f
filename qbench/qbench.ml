(* The benchmark of the quantum tier.

     qbench --workload travel|front_door --seed N --seconds S --trace 0|1

   runs one workload on inputs generated from the seed, checks the
   outputs, and prints as its last line one JSON object: [correct],
   [attempted], [failed] and [metrics].  With [--trace 0] the metrics are
   the end-to-end ones; with [--trace 1] the run is repeated with spans
   recorded and the metrics are the per-layer ones.  The line before it
   holds the details (host, sizes, sample counts, percentiles); spans
   and details are also written under .qbench/.  qbench/NOTES.md
   describes the workloads and metrics.

     qbench --serve DIR --flights N --trace 0|1

   is the front-door server process that the front_door workload
   launches. *)

(* The declared end-to-end metrics.  Workloads also measure the
   [_tail_ms] latencies; those do not all repeat within a bound on a
   shared 2-core host (NOTES.md), so they go to the details line
   instead. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("accept_p50_ms", "ms");
    ("reject_p50_ms", "ms");
    ("read_p50_ms", "ms");
    ("checkin_p50_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

(* Spans whose self time is reported, in call order from the outside in. *)
let span_names =
  [
    "gen.wait";
    "gen.send";
    "gen.recv";
    "net.request";
    "actor.task";
    "actor.batch_end";
    "core.check";
    "core.commit";
    "core.read";
    "core.ground";
    "wal.append";
    "wal.fsync";
  ]

(* A layer that is not on a workload's path reports 0. *)
let per_layer =
  [
    ("actor.busy_s", "s");
    ("actor.queue_wait_s", "s");
    ("actor.imbalance", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.minor_words_per_op", "words");
    ("core.check_s", "s");
    ("core.commit_s", "s");
    ("core.ground_s", "s");
    ("core.read_s", "s");
    ("solver.nodes", "count");
    ("solver.candidates", "count");
    ("solver.nodes_per_reject", "count");
    ("solver.cache_hit_pct", "%");
    ("governor.exhaustions", "count");
    ("wal.append_s", "s");
    ("wal.fsync_s", "s");
    ("wal.fsyncs", "count");
    ("wal.bytes_per_commit", "B");
    ("net.server_p50_ms", "ms");
    ("net.server_tail_ms", "ms");
    ("net.batch_mean", "count");
    ("gen.late_tail_ms", "ms");
    ("attributed_pct", "%");
    ("trace_overhead_pct", "%");
  ]
  @ List.map (fun n -> ("self." ^ n ^ "_s", "s")) span_names

let usage () =
  prerr_endline
    "usage: qbench --workload travel|front_door --seed N --seconds S --trace 0|1\n\
    \       qbench --serve DIR --flights N --trace 0|1";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Per-layer metrics of a traced run: the workload's counters, then span
   self times in the measured phases, the share of the attributed time
   that layer spans cover, and tracing overhead. *)
let layer_metrics (o : Report.outcome) (t : Report.trace) =
  let in_windows s =
    List.exists (fun (w0, w1) -> s.Span.stop_ns > w0 && s.Span.start_ns < w1) t.Report.windows
  in
  let self = Span.self_times (List.filter in_windows t.Report.spans) in
  let time, layers = t.Report.attributed in
  o.Report.metrics
  @ Report.
      [
        metric "attributed_pct" "%" (Span.coverage layers ~windows:time);
        metric "trace_overhead_pct" "%" t.Report.overhead_pct;
      ]
  @ List.map
      (fun n ->
        Report.metric ("self." ^ n ^ "_s") "s" (Option.value ~default:0. (List.assoc_opt n self)))
      span_names

(* Order [metrics] as [wanted], filling layers a workload lacks with 0;
   a missing end-to-end metric is a bug in the benchmark. *)
let select ~fill wanted (metrics : Report.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Report.name = name) metrics with
      | Some m -> m
      | None when fill -> Report.metric name unit_ 0.
      | None -> failwith ("workload did not measure " ^ name))
    wanted

let main ~workload ~seed ~seconds ~trace =
  let base = ".qbench" in
  let dir = Filename.concat base (Printf.sprintf "%s-%d" workload seed) in
  mkdir_p dir;
  let exe = Sys.executable_name in
  let outcome, trace_info =
    match workload with
    | "travel" -> W_travel.run ~dir ~seed ~seconds ~trace
    | "front_door" -> W_front_door.run ~exe ~dir ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let metrics =
    match trace_info with
    | Some t ->
      Span.write (Filename.concat dir "spans.json") t.Report.spans;
      select ~fill:true per_layer (layer_metrics outcome t)
    | None -> select ~fill:false end_to_end outcome.Report.metrics
  in
  let also_measured =
    List.filter (fun m -> not (List.memq m metrics)) outcome.Report.metrics
    |> List.map (fun m -> (m.Report.name, Report.J.Num m.Report.value))
  in
  let host =
    Report.J.Obj
      [
        ("cores", Report.int (Host.cores ()));
        ("ocaml", Report.J.Str Sys.ocaml_version);
        ("wal_filesystem", Report.J.Str (Host.filesystem dir));
      ]
  in
  let details =
    Report.J.to_string
      (Report.J.Obj
         ([ ("host", host); ("seed", Report.int seed); ("seconds", Report.J.Num seconds);
            ("trace", Report.J.Bool trace) ]
         @ outcome.Report.details
         @ [ ("also_measured", Report.J.Obj also_measured) ]
         @ [ ("failures", Report.J.List (List.map (fun s -> Report.J.Str s) outcome.Report.failures)) ]))
  in
  let oc = open_out (Filename.concat dir (Printf.sprintf "details-trace%d.json" (Bool.to_int trace))) in
  output_string oc (details ^ "\n");
  close_out oc;
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) outcome.Report.failures;
  print_endline details;
  print_endline (Report.result_line ~correct:(outcome.Report.failures = []) outcome metrics)

let () =
  (* A peer that is gone shows up as EPIPE on the next write, not as a
     signal that kills the benchmark before it can stop its server. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  match List.assoc_opt "serve" o with
  | Some dir -> W_front_door.serve ~dir ~flights:(int "flights") ~trace
  | None ->
    let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage () in
    main ~workload:(get "workload") ~seed:(int "seed") ~seconds ~trace
