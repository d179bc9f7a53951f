(* Tests for the coordination profiler: cross-domain span-context
   propagation through actor mailboxes, the per-admission flight recorder
   (ring wraparound, slow dumps, behaviour invariance), the rejection
   observability harness, and the p999 histogram exports. *)

module Trace = Obs.Trace
module Flight = Obs.Flight
module Json = Obs.Json
module Export = Obs.Export
module Registry = Obs.Registry
module Histogram = Obs.Histogram
module Qdb = Quantum.Qdb
module Travel = Workload.Travel
module Flights = Workload.Flights

let with_tracing f =
  Trace.enable ();
  Fun.protect f ~finally:Trace.disable

let with_recorder ?capacity ?slow_threshold_ns f =
  Flight.enable ?capacity ?slow_threshold_ns ();
  Fun.protect f ~finally:Flight.disable

let mem name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("missing field " ^ name)

let num j =
  match Json.to_number j with
  | Some x -> x
  | None -> Alcotest.fail "expected a number"

let str j =
  match Json.to_str j with
  | Some s -> s
  | None -> Alcotest.fail "expected a string"

(* -- Cross-domain causal tracing ---------------------------------------------- *)

(* Two unclamped actors are two spawned domains; keys 0 and 1 route to
   different ones.  Both tasks are sent from inside the driver's "outer"
   span and must parent to it on their own domain tracks. *)
let test_ctx_propagation_two_domains () =
  with_tracing @@ fun () ->
  let rt = Actor.Runtime.create ~clamp:false ~actors:2 ~make:(fun _ -> ()) () in
  Fun.protect
    ~finally:(fun () -> Actor.Runtime.shutdown rt)
    (fun () ->
      Trace.span ~cat:"test" "outer" (fun () ->
          Actor.Runtime.post rt ~key:0 (fun () -> Trace.span ~cat:"test" "postwork" ignore);
          Actor.Runtime.call rt ~key:1 (fun () -> Trace.span ~cat:"test" "callwork" ignore);
          Actor.Runtime.drain rt));
  let evs = Trace.events () in
  let one name =
    match List.filter (fun (e : Trace.event) -> e.Trace.name = name) evs with
    | [ e ] -> e
    | l -> Alcotest.fail (Printf.sprintf "want exactly one %s span, got %d" name (List.length l))
  in
  let outer = one "outer" in
  let posted = one "postwork" and called = one "callwork" in
  (* Parent links survive the hop, for both the post and the call path. *)
  Alcotest.(check int) "posted task parents to outer" outer.Trace.id posted.Trace.parent;
  Alcotest.(check int) "called task parents to outer" outer.Trace.id called.Trace.parent;
  Alcotest.(check bool) "tasks on distinct domain tracks" true (posted.Trace.tid <> called.Trace.tid);
  Alcotest.(check bool) "tasks off the driver's track" true
    (posted.Trace.tid <> outer.Trace.tid && called.Trace.tid <> outer.Trace.tid);
  (* The Chrome export parses back, carries the causal args, and emits a
     flow arrow for each cross-domain hop. *)
  let j = Json.of_string (Export.chrome_trace_string evs) in
  let exported = Json.to_list (mem "traceEvents" j) in
  let posted_json =
    List.find
      (fun e ->
        match Json.member "name" e with Some (Json.Str "postwork") -> true | _ -> false)
      exported
  in
  Alcotest.(check (float 0.)) "span_id arg survives export"
    (float_of_int posted.Trace.id)
    (num (mem "span_id" (mem "args" posted_json)));
  Alcotest.(check (float 0.)) "parent arg survives export"
    (float_of_int outer.Trace.id)
    (num (mem "parent" (mem "args" posted_json)));
  let flow ph =
    List.filter
      (fun e -> match Json.member "ph" e with Some (Json.Str p) -> p = ph | _ -> false)
      exported
  in
  Alcotest.(check int) "one flow start per hop" 2 (List.length (flow "s"));
  Alcotest.(check int) "flow starts and ends pair up" (List.length (flow "s"))
    (List.length (flow "f"))

(* -- Flight recorder ----------------------------------------------------------- *)

let record_n n =
  for i = 0 to n - 1 do
    Flight.begin_admission ~txn_id:i ~label:(Printf.sprintf "t%d" i);
    Flight.end_admission ~outcome:"committed" ~solver_nodes:0 ~solver_candidates:0
  done

let test_ring_wraparound () =
  with_recorder ~capacity:16 @@ fun () ->
  record_n 19;
  let records = Flight.records () in
  Alcotest.(check int) "ring holds capacity" 16 (List.length records);
  Alcotest.(check int) "recorded counts everything" 19 (Flight.recorded ());
  Alcotest.(check int) "dropped = overflow" 3 (Flight.dropped ());
  (* Oldest-first and the survivors are the LAST 16 admissions. *)
  Alcotest.(check (list int)) "survivors are the newest, in order"
    (List.init 16 (fun i -> i + 3))
    (List.map (fun (r : Flight.record) -> r.Flight.txn_id) records)

let test_slow_dump_trigger () =
  with_tracing @@ fun () ->
  with_recorder ~slow_threshold_ns:0L @@ fun () ->
  let store = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 4; dest = "LA" } in
  let qdb = Qdb.create store in
  List.iteri
    (fun i _ ->
      let u = { Travel.name = Printf.sprintf "u%d" i; partner = "-"; flight = 0 } in
      ignore (Qdb.submit qdb (Travel.plain_txn u)))
    (List.init 10 Fun.id);
  let dumps = Flight.slow_dumps () in
  (* Threshold 0 marks every admission slow; the dump list caps at 8. *)
  Alcotest.(check int) "dump cap" 8 (List.length dumps);
  Alcotest.(check bool) "dumps carry their trace window" true
    (List.exists (fun (_, events) -> events <> []) dumps);
  List.iter
    (fun ((r : Flight.record), _) ->
      Alcotest.(check bool) "dumped record has time" true (r.Flight.total_ns >= 0))
    dumps

(* Recorder + tracing must never change admission outcomes.  Run the same
   over-capacity stream (16 travellers, 6 seats) instrumented and bare. *)
let overcapacity_outcomes () =
  let store = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 2; dest = "LA" } in
  let qdb = Qdb.create store in
  List.map
    (fun i ->
      let u = { Travel.name = Printf.sprintf "u%d" i; partner = "-"; flight = 0 } in
      match Qdb.submit qdb (Travel.plain_txn u) with
      | Qdb.Committed _ -> true
      | Qdb.Rejected _ | Qdb.Overloaded _ -> false)
    (List.init 16 Fun.id)

let test_recorder_does_not_change_outcomes () =
  let bare = overcapacity_outcomes () in
  let instrumented =
    with_tracing @@ fun () ->
    with_recorder @@ fun () -> overcapacity_outcomes ()
  in
  Alcotest.(check (list bool)) "bit-identical admission outcomes" bare instrumented;
  Alcotest.(check int) "over-capacity stream does reject" 6
    (List.length (List.filter Fun.id bare))

let test_rejection_harness () =
  let s = Harness.Rejection.run ~quiet:true () in
  Alcotest.(check int) "committed = seats" 6 s.Harness.Rejection.committed;
  Alcotest.(check int) "rejected = overflow" 10 s.Harness.Rejection.rejected;
  Alcotest.(check int) "a span per rejection" 10 s.Harness.Rejection.rejection_spans;
  Alcotest.(check int) "a record per rejection" 10 s.Harness.Rejection.rejected_records

(* Nested [time] frames attribute exclusive self time: the inner phase's
   elapsed time never double-counts into the outer phase. *)
let test_exclusive_phase_nesting () =
  with_recorder @@ fun () ->
  let spin_ns target =
    let t0 = Obs.Mclock.now_ns () in
    while Int64.compare (Obs.Mclock.elapsed_ns t0) target < 0 do
      ignore (Sys.opaque_identity (succ 0))
    done
  in
  let t0 = Obs.Mclock.now_ns () in
  Flight.time Flight.Compose (fun () ->
      spin_ns 3_000_000L;
      Flight.time Flight.Solve (fun () -> spin_ns 3_000_000L);
      spin_ns 1_000_000L);
  let elapsed = Int64.to_int (Obs.Mclock.elapsed_ns t0) in
  let total ph = List.assq ph (Flight.totals ()) in
  let compose = total Flight.Compose and solve = total Flight.Solve in
  Alcotest.(check bool) "solve saw its spin" true (solve >= 2_500_000);
  Alcotest.(check bool) "compose saw its spins" true (compose >= 3_000_000);
  Alcotest.(check bool) "compose excludes solve" true (compose + solve <= elapsed + 500_000);
  Alcotest.(check int) "everything attributed to the two phases"
    (compose + solve) (Flight.total_attributed_ns ())

(* -- p999 exports -------------------------------------------------------------- *)

let skewed_registry () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "qdb.submit.latency" in
  for _ = 1 to 997 do Histogram.observe h 1e-4 done;
  for _ = 1 to 3 do Histogram.observe h 5e-2 done;
  reg

let test_p999_in_json_snapshot () =
  let j = Json.of_string (Export.json_snapshot_string (skewed_registry ())) in
  let h = mem "qdb.submit.latency" (mem "histograms" j) in
  let p99 = num (mem "p99_s" h) and p999 = num (mem "p999_s" h) in
  Alcotest.(check bool) "p999 present and >= p99" true (p999 >= p99);
  (* Three 50ms outliers in 1000 samples sit past the 99.9th percentile
     rank but nowhere near the p99. *)
  Alcotest.(check bool) "p999 sees the tail" true (p999 > 1e-3);
  Alcotest.(check bool) "p99 does not" true (p99 < 1e-3)

let test_p999_in_prometheus () =
  let text = Export.prometheus (skewed_registry ()) in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "p999 gauge line" true (contains "qdb_submit_latency_p999");
  Alcotest.(check bool) "p999 type line" true
    (contains "# TYPE qdb_submit_latency_p999 gauge")

let suite =
  [ Alcotest.test_case "ctx propagation across 2 domains" `Quick
      test_ctx_propagation_two_domains;
    Alcotest.test_case "flight ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "slow-admission dumps" `Quick test_slow_dump_trigger;
    Alcotest.test_case "recorder does not change outcomes" `Quick
      test_recorder_does_not_change_outcomes;
    Alcotest.test_case "rejection observability harness" `Quick test_rejection_harness;
    Alcotest.test_case "exclusive phase nesting" `Quick test_exclusive_phase_nesting;
    Alcotest.test_case "p999 in json snapshot" `Quick test_p999_in_json_snapshot;
    Alcotest.test_case "p999 in prometheus" `Quick test_p999_in_prometheus;
  ]
