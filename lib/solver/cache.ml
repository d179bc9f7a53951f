(* Solution cache (Section 4, "Solution Cache").

   A quantum database must maintain at least one valid grounding per
   composed transaction body.  Rather than recomputing it on every
   admission check, the cache keeps current witness valuations and first
   tries to *extend* one of them to cover a new transaction's clauses;
   only when every extension fails does it fall back to a full re-solve
   of the whole composed body.

   The paper's prototype kept a single solution and notes: "A strategy to
   avoid such recomputation is to increase the number of solutions
   maintained in the cache.  Such additional solutions can be computed by
   a background process...  Our current prototype does not implement this
   strategy."  This cache implements it: [capacity] witnesses are kept in
   LRU order, and [refill] computes additional diverse witnesses (the
   role of the paper's background process; callers decide when to spend
   the time).  Statistics record how often each path ran. *)

open Logic

type stats = {
  mutable extensions : int;
  mutable extension_hits : int;
  mutable full_solves : int;
  mutable invalidations : int;
}

let fresh_stats () = { extensions = 0; extension_hits = 0; full_solves = 0; invalidations = 0 }

type t = {
  mutable witnesses : Subst.t list; (* most recently useful first *)
  capacity : int;
  stats : stats;
  solver_stats : Backtrack.stats;
}

let default_capacity = 1 (* the prototype's behaviour unless asked otherwise *)

let create ?(stats = fresh_stats ()) ?solver_stats ?(capacity = default_capacity) () =
  let solver_stats =
    match solver_stats with
    | Some s -> s (* shared, e.g. with engine-level telemetry *)
    | None -> Backtrack.fresh_stats ()
  in
  { witnesses = []; capacity = max 1 capacity; stats; solver_stats }

let witness t =
  match t.witnesses with
  | w :: _ -> Some w
  | [] -> None

let witnesses t = t.witnesses
let stats t = t.stats
let solver_stats t = t.solver_stats

let invalidate t =
  t.stats.invalidations <- t.stats.invalidations + 1;
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"cache"
      ~args:[ ("dropped", Obs.Trace.Int (List.length t.witnesses)) ]
      "cache.invalidate";
  t.witnesses <- []

let truncate t ws =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | w :: rest -> w :: take (n - 1) rest
  in
  take t.capacity ws

(* Authoritative witness (e.g. after a grounding re-solve): older
   witnesses belonged to a different composed body and are dropped. *)
let set_witness t subst = t.witnesses <- [ subst ]

let store_witness t subst = t.witnesses <- truncate t (subst :: t.witnesses)

(* Three-way admission verdict: exhaustion (node budget or deadline) is
   distinct from semantic unsatisfiability, so the engine's governor can
   retry or degrade instead of misreporting a rejection. *)
type outcome =
  | Sat of Subst.t
  | Unsat
  | Exhausted of string (* which budget ran out *)

(* From-scratch admission solve: no witness extension, one unseeded solve
   of the whole composed body, witness stored on success.  This is the
   [--no-incremental] ablation path and the reference the seeded path's
   outcomes are tested against. *)
let solve_full ?node_limit ?deadline_ns t db formula =
  t.stats.full_solves <- t.stats.full_solves + 1;
  match
    Obs.Flight.time Obs.Flight.Solve (fun () ->
        Backtrack.solve ?node_limit ?deadline_ns ~stats:t.solver_stats db formula)
  with
  | Some subst ->
    store_witness t subst;
    Sat subst
  | None -> Unsat
  | exception Backtrack.Too_many_nodes -> Exhausted "solver node budget exhausted"
  | exception Backtrack.Timed_out -> Exhausted "admission deadline exceeded"

(* Try to extend each cached witness over [new_clauses]; on a hit the
   successful base moves to the front (LRU).  On miss, re-solve
   [full_formula] from scratch.  [full_formula] is lazy: an extension hit
   never needs the flattened whole-body conjunction, so the admission hot
   path skips building it.  A per-base node-budget blowup moves on to the
   next base (another witness may extend cheaply); a deadline blowup
   aborts the whole check — the clock is shared across bases. *)
let try_extend ?node_limit ?deadline_ns t db ~new_clauses ~full_formula =
  let bases_tried = ref 0 in
  let rec try_bases tried = function
    | [] -> Unsat
    | seed :: rest ->
      t.stats.extensions <- t.stats.extensions + 1;
      incr bases_tried;
      (match
         Backtrack.solve ?node_limit ?deadline_ns ~seed ~stats:t.solver_stats db new_clauses
       with
       | Some subst ->
         t.stats.extension_hits <- t.stats.extension_hits + 1;
         (* Promote the successful base; the extended valuation becomes
            the primary witness. *)
         t.witnesses <- truncate t (subst :: List.rev_append tried rest);
         Sat subst
       | None -> try_bases (seed :: tried) rest
       | exception Backtrack.Too_many_nodes -> try_bases (seed :: tried) rest
       | exception Backtrack.Timed_out -> Exhausted "admission deadline exceeded")
  in
  (* The extend-vs-resolve decision is the cache's whole point; record
     which path this admission check took.  Extension attempts are the
     cache phase; the fallback re-solve below accounts itself as solve. *)
  match Obs.Flight.time Obs.Flight.Cache (fun () -> try_bases [] t.witnesses) with
  | Sat _ as hit ->
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"cache"
        ~args:[ ("bases_tried", Obs.Trace.Int !bases_tried) ]
        "cache.extend_hit";
    hit
  | Exhausted _ as e -> e
  | Unsat ->
    let result = solve_full ?node_limit ?deadline_ns t db (Lazy.force full_formula) in
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"cache"
        ~args:
          [ ("bases_tried", Obs.Trace.Int !bases_tried);
            ("satisfiable", Obs.Trace.Bool (match result with Sat _ -> true | _ -> false));
          ]
        "cache.full_solve";
    result

(* Incremental-SAT admission check (the Section 6 backend): delegate to a
   persistent {!Sat.Inc} session solving under the live chunks'
   activation literals.  [None] means the body is not SAT-encodable (or
   stopped being — the caller falls back to the search solver); a decoded
   witness is restricted to the partition's live variables before it is
   cached, since the session's model also values dead garbage variables. *)
let check_sat ?conflict_limit ?deadline_ns t session db ~chunks ~live_vars =
  match
    Obs.Flight.time Obs.Flight.Solve (fun () ->
        Sat.Inc.check ?conflict_limit ?deadline_ns session db ~chunks)
  with
  | Sat.Inc.V_unsupported _ -> None
  | Sat.Inc.V_unsat -> Some Unsat
  | Sat.Inc.V_sat subst ->
    let w = Subst.restrict live_vars subst in
    store_witness t w;
    Some (Sat w)
  | exception Sat.Cdcl.Conflict_budget_exceeded ->
    Some (Exhausted "sat conflict budget exhausted")
  | exception Sat.Cdcl.Timed_out -> Some (Exhausted "admission deadline exceeded")

(* Legacy option-typed entry points (recovery, tests, ablations): callers
   without a governor see exhaustion as the raw solver exception, exactly
   as before the outcome split. *)
let reraise_exhausted = function
  | Sat subst -> Some subst
  | Unsat -> None
  | Exhausted _ -> raise Backtrack.Too_many_nodes

let resolve_full ?node_limit t db formula =
  reraise_exhausted (solve_full ?node_limit t db formula)

let extend_or_resolve ?node_limit t db ~new_clauses ~full_formula =
  reraise_exhausted (try_extend ?node_limit t db ~new_clauses ~full_formula)

let witness_satisfies db formula subst =
  let lookup v =
    match Subst.resolve subst (Term.V v) with
    | Term.C value -> Some value
    | Term.V _ -> None
  in
  try Formula.eval db lookup formula with Formula.Unbound _ -> false

(* Re-check the cached witnesses against the current database (after a
   blind write); invalid ones are dropped.  [true] when at least one
   witness survives. *)
let revalidate t db formula =
  let surviving = List.filter (witness_satisfies db formula) t.witnesses in
  if surviving = [] then begin
    if t.witnesses <> [] then invalidate t;
    false
  end
  else begin
    t.witnesses <- surviving;
    true
  end

(* -- Split compute/install phases (fault atomicity) -------------------------

   Refills and blind-write re-checks run over several partitions, and
   the engine computes every partition's outcome before installing any:
   a failure part-way leaves every cache untouched.  The *compute* half
   is pure — it reads only the database, an immutable job description
   and a caller-supplied stats record — while the *install* half mutates
   the cache, in deterministic partition order. *)

(* Canonical form of a witness for equality: bindings sorted by variable
   id, so two substitutions with the same content compare equal whatever
   order they were built in. *)
let canonical w =
  List.sort (fun (a, _) (b, _) -> Int.compare a.Term.vid b.Term.vid) (Subst.bindings w)

(* Post-abort hygiene: a prepared-then-aborted admission can leave
   witnesses extended over the aborted transaction's (fresh, now
   unreferenced) variables.  Projecting every witness onto the
   partition's live variables is semantically neutral — a restriction of
   a satisfying valuation still satisfies and still seeds — but keeps
   extension seeds from accreting dead bindings.  Restrictions can
   collide, so the result is deduplicated like a refill. *)
let restrict_witnesses t vars =
  let seen = ref [] in
  let restricted =
    List.filter_map
      (fun w ->
        let r = Subst.restrict vars w in
        let key = canonical r in
        if List.mem key !seen then None
        else begin
          seen := key :: !seen;
          Some r
        end)
      t.witnesses
  in
  t.witnesses <- truncate t restricted

type refill_job = {
  rj_known : Subst.t list;
  rj_capacity : int;
  rj_formula : Formula.t;
}

let refill_plan t formula =
  if List.length t.witnesses >= t.capacity then None
  else Some { rj_known = t.witnesses; rj_capacity = t.capacity; rj_formula = formula }

let refill_compute ?node_limit ~stats db job =
  let missing = job.rj_capacity - List.length job.rj_known in
  if missing <= 0 then []
  else begin
    let fresh =
      try
        (* Ask for capacity = missing + |known| solutions: enough even if
           the enumeration rediscovers every known witness, without the
           old capacity + |witnesses| over-ask. *)
        Obs.Flight.time Obs.Flight.Solve (fun () ->
            Backtrack.solutions ?node_limit ~stats ~limit:job.rj_capacity db job.rj_formula)
      with Backtrack.Too_many_nodes -> []
    in
    (* Distinct against the known witnesses AND among themselves. *)
    let seen = ref (List.map canonical job.rj_known) in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | w :: rest ->
        let key = canonical w in
        if List.mem key !seen then take n rest
        else begin
          seen := key :: !seen;
          w :: take (n - 1) rest
        end
    in
    take missing fresh
  end

let refill_install t fresh =
  (* The cache may have changed since the plan was taken (invalidation, a
     new authoritative witness): dedup against the current content too. *)
  let seen = List.map canonical t.witnesses in
  let novel = List.filter (fun w -> not (List.mem (canonical w) seen)) fresh in
  t.witnesses <- truncate t (t.witnesses @ novel);
  List.length t.witnesses

(* Compute additional diverse witnesses for [formula] up to capacity —
   the paper's background-process role, invoked at the caller's leisure.
   Returns how many witnesses the cache now holds. *)
let refill ?node_limit t db formula =
  Obs.Trace.span ~cat:"cache"
    ~args:(fun () -> [ ("witnesses", Obs.Trace.Int (List.length t.witnesses)) ])
    "cache.refill"
  @@ fun () ->
  match refill_plan t formula with
  | None -> List.length t.witnesses
  | Some job ->
    refill_install t (refill_compute ?node_limit ~stats:t.solver_stats db job)

(* Blind-write re-check, split the same way.  [Keep] preserves surviving
   witnesses, [Rewitness] replaces a fully-dead cache after a successful
   re-solve, [Unsat_now] means the composed body lost satisfiability and
   the write must be refused. *)
type recheck_outcome =
  | Keep of Subst.t list
  | Rewitness of Subst.t
  | Unsat_now

let recheck_compute ?node_limit ~stats db ~witnesses ~formula =
  match
    Obs.Flight.time Obs.Flight.Cache (fun () ->
        List.filter (witness_satisfies db formula) witnesses)
  with
  | _ :: _ as surviving -> Keep surviving
  | [] ->
    (match
       Obs.Flight.time Obs.Flight.Solve (fun () -> Backtrack.solve ?node_limit ~stats db formula)
     with
     | Some w -> Rewitness w
     | None -> Unsat_now)

let recheck_install t outcome =
  match outcome with
  | Keep surviving ->
    t.witnesses <- surviving;
    true
  | Rewitness w ->
    if t.witnesses <> [] then invalidate t;
    set_witness t w;
    true
  | Unsat_now ->
    if t.witnesses <> [] then invalidate t;
    false
