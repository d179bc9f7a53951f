(* Incremental-admission k-sweep ("Figure 7 revisited"): cost of one
   admission as the pending set deepens.

   One flight, k plain bookings into a single partition, so the k-th
   admission composes against k-1 standing transactions — the worst case
   for from-scratch recomposition (O(k^2) clause work per admission) and
   the best case for delta composition + witness-seeded solving.  Each k
   runs twice, [incremental] on and off (the [Qdb.config.incremental]
   ablation), and the sweep asserts the accept/reject outcomes are
   bit-identical between the two modes before recording anything into
   BENCH_admission.json.

   Wall time per point is the best of [repeats] runs (fresh store and
   engine each time), which filters allocator/GC noise without hiding
   the asymptotic gap the bench exists to track. *)

module Qdb = Quantum.Qdb
module Travel = Workload.Travel
module Flights = Workload.Flights

type point = {
  k : int;
  incremental : bool;
  wall_s : float;
  ns_per_admission : float;
  composed_clauses : int;  (** composed-body clauses standing after the sweep *)
  solver_nodes : int;
  committed : int;
  rejected : int;
}

type recording = {
  ks : int list;
  repeats : int;
  cores : int;
  series : point list;
  speedups : (int * float) list;  (** per k: from-scratch ns / incremental ns *)
  deterministic : bool;
      (** outcomes identical incremental vs from-scratch *)
}

let default_ks = [ 5; 10; 20; 40 ]

let users_for k =
  List.filteri (fun i _ -> i < k) (Travel.make_users ~flights:1 ~pairs_per_flight:((k + 1) / 2))

let config ~incremental k =
  (* k+1 bound: the sweep itself must never trigger k-pressure grounding,
     which would shrink the partition mid-measurement.  Capacity 1 (the
     paper prototype's) keeps the post-commit refill out of the measured
     path: with spare-witness refills on, every admission pays one full
     solve of the whole body in BOTH modes and the sweep measures the
     refill, not the admission. *)
  { Qdb.default_config with Qdb.k = k + 1; cache_capacity = 1; incremental }

(* One sweep: k admissions into a fresh engine.  Returns the engine (for
   gauge/stat readout), the per-submission outcome trace and wall time. *)
let sweep ~incremental k =
  let store = Flights.fresh_store { Flights.flights = 1; rows_per_flight = k; dest = "LA" } in
  let qdb = Qdb.create ~config:(config ~incremental k) store in
  (* Monotonic clock: Unix.gettimeofday is not NTP-safe and must not time
     latency measurements (see lib/obs/mclock.ml). *)
  let t0 = Obs.Mclock.now_ns () in
  let outcomes =
    List.map
      (fun u ->
        match Qdb.submit qdb (Travel.plain_txn u) with
        | Qdb.Committed _ -> true
        | Qdb.Rejected _ | Qdb.Overloaded _ -> false)
      (users_for k)
  in
  (qdb, outcomes, Obs.Mclock.elapsed_s t0)

let run_point ~repeats ~incremental k =
  let runs = List.init repeats (fun _ -> sweep ~incremental k) in
  let qdb, outcomes, _ = List.hd runs in
  let wall_s = List.fold_left (fun acc (_, _, w) -> Float.min acc w) infinity runs in
  let m = Qdb.metrics qdb in
  let committed = List.length (List.filter Fun.id outcomes) in
  ( {
      k;
      incremental;
      wall_s;
      ns_per_admission = wall_s *. 1e9 /. float_of_int k;
      composed_clauses = Qdb.composed_clause_total qdb;
      solver_nodes = m.Quantum.Metrics.solver_stats.Solver.Backtrack.nodes;
      committed;
      rejected = List.length outcomes - committed;
    },
    outcomes )

let run ?(ks = default_ks) ?(repeats = 3) () =
  let raw =
    List.map
      (fun k ->
        let inc, inc_outcomes = run_point ~repeats ~incremental:true k in
        let scratch, scratch_outcomes = run_point ~repeats ~incremental:false k in
        (* Outcome identity across the ablation: the bench refuses to
           record numbers for diverging configurations. *)
        (k, inc, scratch, inc_outcomes = scratch_outcomes))
      ks
  in
  {
    ks;
    repeats;
    cores = Domain.recommended_domain_count ();
    series = List.concat_map (fun (_, inc, scratch, _) -> [ inc; scratch ]) raw;
    speedups =
      List.map
        (fun (k, inc, scratch, _) ->
          ( k,
            if inc.ns_per_admission > 0. then scratch.ns_per_admission /. inc.ns_per_admission
            else 0. ))
        raw;
    deterministic = List.for_all (fun (_, _, _, identical) -> identical) raw;
  }

(* -- Reporting -------------------------------------------------------------- *)

let mode_name p = if p.incremental then "incremental" else "from-scratch"

let print r =
  Common.section "Incremental admission: pending-depth sweep (Figure 7 revisited)";
  let rows =
    List.map
      (fun p ->
        [ string_of_int p.k;
          mode_name p;
          Printf.sprintf "%.1f" (p.ns_per_admission /. 1000.);
          string_of_int p.composed_clauses;
          string_of_int p.solver_nodes;
          string_of_int p.committed;
          string_of_int p.rejected;
        ])
      r.series
  in
  Common.print_table ~csv:"admission"
    ~header:[ "k"; "mode"; "us/adm"; "clauses"; "nodes"; "committed"; "rejected" ]
    rows;
  List.iter
    (fun (k, x) -> Printf.printf "k=%-3d incremental speedup: %.2fx\n%!" k x)
    r.speedups;
  Printf.printf "(host cores: %d; outcomes %s across modes)\n%!" r.cores
    (if r.deterministic then "identical" else "DIVERGED");
  if not r.deterministic then
    failwith "admission bench: outcomes diverged across modes"

let json_of_recording r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"qdb.bench.admission/v1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"workload\": {\"ks\": [%s], \"repeats\": %d},\n"
       (String.concat ", " (List.map string_of_int r.ks))
       r.repeats);
  Buffer.add_string b
    (Printf.sprintf "  \"host\": {\"cores\": %d},\n  \"deterministic\": %b,\n  \"series\": [\n"
       r.cores r.deterministic);
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"k\": %d, \"mode\": \"%s\", \"wall_s\": %.6f, \"ns_per_admission\": %.1f, \
            \"composed_clauses\": %d, \"solver_nodes\": %d, \"committed\": %d, \"rejected\": \
            %d}%s\n"
           p.k (mode_name p) p.wall_s p.ns_per_admission p.composed_clauses p.solver_nodes
           p.committed p.rejected
           (if i = List.length r.series - 1 then "" else ",")))
    r.series;
  Buffer.add_string b "  ],\n  \"speedup_vs_scratch\": [\n";
  List.iteri
    (fun i (k, x) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"k\": %d, \"x\": %.3f}%s\n" k x
           (if i = List.length r.speedups - 1 then "" else ",")))
    r.speedups;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write ?(path = "results/BENCH_admission.json") r =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (json_of_recording r);
  close_out oc;
  Printf.printf "(admission series written to %s)\n%!" path;
  path
