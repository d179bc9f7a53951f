(* Per-admission flight recorder + process-wide phase accounting.

   Two things share one set of instrumentation points:

   - [time phase f] attributes wall time to a pipeline phase.  Attribution
     is *exclusive*: a phase's self time is its elapsed time minus the
     time spent in phases nested inside it, so the per-phase totals are a
     partition of instrumented wall time and never double count (the
     engine's Ground solve runs inside the Ground wrapper but accrues to
     Solve, not to both).  Totals are process-global atomics — actor
     domains accrue concurrently — and each domain keeps its own frame
     stack in DLS, so attribution is race-free without locks.

   - a fixed-size ring of per-admission records: while an admission is
     open (between [begin_admission] and [end_admission]) every phase
     interval measured on the same domain is also charged to that
     admission's record, alongside its outcome, solver work and
     chunk-reuse counts.  Admissions exceeding [slow_ns] additionally
     capture the trace events of their window into a bounded dump list —
     the offending record plus its spans, retrievable after the run.

   Like tracing, the recorder is process-global and off by default; every
   entry point's first instruction is a flag test.  Recording must never
   change engine behaviour — it only reads clocks and counters. *)

type phase =
  | Compose (* delta/body composition *)
  | Cache (* witness-extension attempts in the solution cache *)
  | Solve (* unseeded/seeded solver search (admission, refill, recheck, ground) *)
  | Wal (* store applies: pending-table inserts, grounding batches *)
  | Ground (* grounding orchestration around its solves and WAL writes *)
  | Freeze (* snapshotting partition bodies for cache-refill jobs *)
  | Queue (* queue wait: enqueue to dequeue (no producer since the domain
             pool was retired; actor mailbox wait is not recorded here) *)
  | Compute (* actor task execution not otherwise attributed *)
  | Merge (* result recombination on the driver *)
  | Install (* installing refill/recheck results into caches *)
  | Coordination (* refill/recheck rounds: planning and per-partition jobs *)
  | Governor (* admission-budget ladder: retries, backoff, degradation *)

let n_phases = 12

let index = function
  | Compose -> 0
  | Cache -> 1
  | Solve -> 2
  | Wal -> 3
  | Ground -> 4
  | Freeze -> 5
  | Queue -> 6
  | Compute -> 7
  | Merge -> 8
  | Install -> 9
  | Coordination -> 10
  | Governor -> 11

let phase_name = function
  | Compose -> "compose"
  | Cache -> "cache"
  | Solve -> "solve"
  | Wal -> "wal"
  | Ground -> "ground"
  | Freeze -> "freeze"
  | Queue -> "queue_wait"
  | Compute -> "compute"
  | Merge -> "merge"
  | Install -> "install"
  | Coordination -> "coordination"
  | Governor -> "governor"

let all_phases =
  [ Compose; Cache; Solve; Wal; Ground; Freeze; Queue; Compute; Merge; Install; Coordination;
    Governor ]

type record = {
  seq : int; (* admission order, monotonically increasing *)
  txn_id : int;
  label : string;
  outcome : string; (* "committed" / "rejected" / "exception" *)
  total_ns : int;
  phase_ns : int array; (* indexed by [index], exclusive self time *)
  solver_nodes : int;
  solver_candidates : int;
  chunks_reused : int; (* composed chunks the delta path did not rebuild *)
}

let record_phase_ns r phase = r.phase_ns.(index phase)

(* -- Process-global state --------------------------------------------------- *)

let enabled = ref false
let default_capacity = 4096
let default_slow_ns = Int64.max_int
let max_slow_dumps = 8

let totals_ns : int Atomic.t array = Array.init n_phases (fun _ -> Atomic.make 0)

(* Ring of per-admission records, shared across domains (actors admit
   concurrently); same locking shape as the trace ring. *)
let ring : record option array ref = ref [||]
let total = ref 0
let slow_ns = ref default_slow_ns
let slow_dumps_list : (record * Trace.event list) list ref = ref []
let ring_mutex = Mutex.create ()

(* -- Per-domain state (no locks) -------------------------------------------- *)

type frame = {
  f_phase : int;
  f_start : int64;
  mutable f_child_ns : int64; (* time claimed by nested phases *)
}

let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

type cell = {
  c_seq : int;
  c_txn_id : int;
  c_label : string;
  c_start : int64;
  c_phase_ns : int array;
  mutable c_chunks_reused : int;
}

let cell_key : cell option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let next_seq = Atomic.make 0

let on () = !enabled

let enable ?(capacity = default_capacity) ?(slow_threshold_ns = default_slow_ns) () =
  Mutex.lock ring_mutex;
  ring := Array.make (max 16 capacity) None;
  total := 0;
  slow_ns := slow_threshold_ns;
  slow_dumps_list := [];
  Array.iter (fun a -> Atomic.set a 0) totals_ns;
  Atomic.set next_seq 0;
  Mutex.unlock ring_mutex;
  enabled := true

let disable () = enabled := false

let clear () =
  Mutex.lock ring_mutex;
  total := 0;
  slow_dumps_list := [];
  Array.iter (fun a -> Atomic.set a 0) totals_ns;
  Atomic.set next_seq 0;
  Mutex.unlock ring_mutex

let capacity () = Array.length !ring
let recorded () = !total
let dropped () = max 0 (!total - Array.length !ring)

(* -- Phase attribution ------------------------------------------------------ *)

let charge phase_idx self_ns =
  ignore (Atomic.fetch_and_add totals_ns.(phase_idx) self_ns);
  match !(Domain.DLS.get cell_key) with
  | Some cell -> cell.c_phase_ns.(phase_idx) <- cell.c_phase_ns.(phase_idx) + self_ns
  | None -> ()

let time phase f =
  if not !enabled then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let fr = { f_phase = index phase; f_start = Mclock.now_ns (); f_child_ns = 0L } in
    stack := fr :: !stack;
    let finally () =
      let elapsed = Mclock.elapsed_ns fr.f_start in
      (match !stack with
       | top :: rest when top == fr -> stack := rest
       | _ -> () (* unbalanced only if f tampered with the recorder; don't corrupt *));
      charge fr.f_phase (max 0 (Int64.to_int (Int64.sub elapsed fr.f_child_ns)));
      match !stack with
      | parent :: _ -> parent.f_child_ns <- Int64.add parent.f_child_ns elapsed
      | [] -> ()
    in
    Fun.protect ~finally f
  end

(* Attribute an interval measured by the caller (e.g. queue wait, clocked
   from the enqueuing domain).  Counts as a nested phase of the current
   frame so the enclosing phase's self time stays exclusive. *)
let add_ns phase ns =
  if !enabled && ns > 0L then begin
    charge (index phase) (Int64.to_int ns);
    match !(Domain.DLS.get stack_key) with
    | parent :: _ -> parent.f_child_ns <- Int64.add parent.f_child_ns ns
    | [] -> ()
  end

let totals () =
  List.map (fun p -> (p, Atomic.get totals_ns.(index p))) all_phases

let total_attributed_ns () =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 totals_ns

(* -- Per-admission records -------------------------------------------------- *)

let begin_admission ~txn_id ~label =
  if !enabled then begin
    let cell = Domain.DLS.get cell_key in
    match !cell with
    | Some _ -> () (* nested admission (k-pressure re-entry is not one); keep outer *)
    | None ->
      cell :=
        Some
          {
            c_seq = Atomic.fetch_and_add next_seq 1;
            c_txn_id = txn_id;
            c_label = label;
            c_start = Mclock.now_ns ();
            c_phase_ns = Array.make n_phases 0;
            c_chunks_reused = 0;
          }
  end

let note_chunks_reused n =
  if !enabled then
    match !(Domain.DLS.get cell_key) with
    | Some cell -> cell.c_chunks_reused <- n
    | None -> ()

let push_record r =
  Mutex.lock ring_mutex;
  let ring' = !ring in
  if Array.length ring' > 0 then begin
    ring'.(!total mod Array.length ring') <- Some r;
    incr total
  end;
  if r.total_ns >= Int64.to_int (Int64.min !slow_ns (Int64.of_int max_int))
     && List.length !slow_dumps_list < max_slow_dumps
  then begin
    (* The admission's window of the trace ring: spans that started (or
       instants that fired) after the admission began.  Empty when
       tracing is off — the record itself still dumps. *)
    let start = Int64.sub (Mclock.now_ns ()) (Int64.of_int r.total_ns) in
    let window =
      List.filter (fun (e : Trace.event) -> Int64.compare e.Trace.ts_ns start >= 0)
        (Trace.events ())
    in
    slow_dumps_list := !slow_dumps_list @ [ (r, window) ]
  end;
  Mutex.unlock ring_mutex

(* Clears the open cell even when recording was disabled mid-admission,
   so a toggle never leaks attribution into a later admission. *)
let end_admission ~outcome ~solver_nodes ~solver_candidates =
  let cell = Domain.DLS.get cell_key in
  match !cell with
  | None -> ()
  | Some c ->
    cell := None;
    if !enabled then
      push_record
        {
          seq = c.c_seq;
          txn_id = c.c_txn_id;
          label = c.c_label;
          outcome;
          total_ns = max 0 (Int64.to_int (Mclock.elapsed_ns c.c_start));
          phase_ns = c.c_phase_ns;
          solver_nodes;
          solver_candidates;
          chunks_reused = c.c_chunks_reused;
        }

(* Surviving records, oldest first. *)
let records () =
  Mutex.lock ring_mutex;
  let r = !ring in
  let cap = Array.length r in
  let n = min !total cap in
  let out = List.init n (fun i -> r.((!total - n + i) mod cap)) in
  Mutex.unlock ring_mutex;
  List.filter_map Fun.id out

let top_slow n =
  let by_total a b = Int.compare b.total_ns a.total_ns in
  List.filteri (fun i _ -> i < n) (List.stable_sort by_total (records ()))

let slow_dumps () =
  Mutex.lock ring_mutex;
  let d = !slow_dumps_list in
  Mutex.unlock ring_mutex;
  d
