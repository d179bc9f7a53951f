(* Telemetry exporters.

   Three machine-readable formats over the same data:
   - Chrome trace_event JSON ("about:tracing" / Perfetto) for the span ring,
   - Prometheus text exposition for the registry,
   - a JSON snapshot of the registry (counters + gauges + histogram
     quantiles), the format `results/metrics.json` is written in. *)

(* -- Chrome trace_event ----------------------------------------------------- *)

let arg_to_json = function
  | Trace.Int i -> Json.Num (float_of_int i)
  | Trace.Float x -> Json.Num x
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let ns_to_us ns = Int64.to_float ns /. 1e3

let event_to_json (e : Trace.event) =
  let base =
    [ ("name", Json.Str e.Trace.name);
      ("cat", Json.Str e.Trace.cat);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int e.Trace.tid));
      ("ts", Json.Num (ns_to_us e.Trace.ts_ns));
    ]
  in
  let phase =
    match e.Trace.ph with
    | Trace.Span -> [ ("ph", Json.Str "X"); ("dur", Json.Num (ns_to_us e.Trace.dur_ns)) ]
    | Trace.Instant -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  (* Span ids and parent links ride in args — Perfetto shows them in the
     details pane and tests reconstruct the causal tree from them. *)
  let causal =
    (if e.Trace.id <> 0 then [ ("span_id", Trace.Int e.Trace.id) ] else [])
    @ if e.Trace.parent <> 0 then [ ("parent", Trace.Int e.Trace.parent) ] else []
  in
  let args =
    match causal @ e.Trace.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)) ]
  in
  Json.Obj (base @ phase @ args)

(* Flow events ("s"/"f" pairs) drawing an arrow from a parent span to each
   child recorded on a DIFFERENT domain — the cross-domain hops (driver
   span → actor task) that a per-track view would otherwise hide. *)
let flow_events events =
  let tid_of = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) -> if e.Trace.id <> 0 then Hashtbl.replace tid_of e.Trace.id e.Trace.tid)
    events;
  List.concat_map
    (fun (e : Trace.event) ->
      match Hashtbl.find_opt tid_of e.Trace.parent with
      | Some parent_tid when e.Trace.id <> 0 && parent_tid <> e.Trace.tid ->
        let base name tid extra =
          Json.Obj
            ([ ("name", Json.Str "spawn");
               ("cat", Json.Str "flow");
               ("ph", Json.Str name);
               ("id", Json.Num (float_of_int e.Trace.id));
               ("pid", Json.Num 1.);
               ("tid", Json.Num (float_of_int tid));
               ("ts", Json.Num (ns_to_us e.Trace.ts_ns));
             ]
             @ extra)
        in
        [ base "s" parent_tid []; base "f" e.Trace.tid [ ("bp", Json.Str "e") ] ]
      | _ -> [])
    events

let chrome_trace events =
  Json.Obj
    [ ("traceEvents", Json.List (List.map event_to_json events @ flow_events events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let chrome_trace_string events = Json.to_string (chrome_trace events)

(* -- Prometheus text exposition --------------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let prom_float x =
  if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else Json.number_to_string x

let prometheus registry =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, value) ->
      let n = sanitize name in
      match value with
      | Registry.Counter v ->
        line "# TYPE %s counter" n;
        line "%s %d" n v
      | Registry.Gauge v ->
        line "# TYPE %s gauge" n;
        line "%s %s" n (prom_float v)
      | Registry.Histogram h ->
        line "# TYPE %s histogram" n;
        let cumulative = ref 0 in
        List.iter
          (fun (upper, count) ->
            cumulative := !cumulative + count;
            line "%s_bucket{le=\"%s\"} %d" n (prom_float upper) !cumulative)
          (Histogram.nonempty_buckets h);
        line "%s_bucket{le=\"+Inf\"} %d" n (Histogram.count h);
        line "%s_sum %s" n (prom_float (Histogram.sum h));
        line "%s_count %d" n (Histogram.count h);
        (* Tail quantile as a companion gauge: log-bucketed histograms
           resolve p999 to ~5% already, and scrape-side quantile math over
           20/decade buckets only loses precision. *)
        line "# TYPE %s_p999 gauge" n;
        line "%s_p999 %s" n (prom_float (Histogram.quantile h 0.999)))
    (Registry.items registry);
  Buffer.contents buf

(* -- JSON registry snapshot ------------------------------------------------- *)

let histogram_to_json h =
  Json.Obj
    [ ("count", Json.Num (float_of_int (Histogram.count h)));
      ("sum_s", Json.Num (Histogram.sum h));
      ("min_s", Json.Num (Histogram.min_value h));
      ("mean_s", Json.Num (Histogram.mean h));
      ("p50_s", Json.Num (Histogram.quantile h 0.5));
      ("p90_s", Json.Num (Histogram.quantile h 0.9));
      ("p99_s", Json.Num (Histogram.quantile h 0.99));
      ("p999_s", Json.Num (Histogram.quantile h 0.999));
      ("max_s", Json.Num (Histogram.max_value h));
    ]

let json_snapshot registry =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, value) ->
      match value with
      | Registry.Counter v -> counters := (name, Json.Num (float_of_int v)) :: !counters
      | Registry.Gauge v -> gauges := (name, Json.Num v) :: !gauges
      | Registry.Histogram h -> histograms := (name, histogram_to_json h) :: !histograms)
    (Registry.items registry);
  Json.Obj
    [ ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

let json_snapshot_string registry = Json.to_string (json_snapshot registry)

(* -- File helpers ----------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_chrome_trace path events = write_file path (chrome_trace_string events)
let write_json_snapshot path registry = write_file path (json_snapshot_string registry)
