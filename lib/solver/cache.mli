(** Solution cache (paper Section 4): keeps witness groundings of a
    composed transaction body and amortizes admission checks by extending
    them instead of re-solving.

    Implements the multi-solution strategy the paper describes but left
    unimplemented in its prototype: up to [capacity] witnesses in LRU
    order, plus {!refill} for computing spares out of the critical path. *)

type stats = {
  mutable extensions : int;
  mutable extension_hits : int;
  mutable full_solves : int;
  mutable invalidations : int;
}

val fresh_stats : unit -> stats

type t

val default_capacity : int
(** 1 — the paper prototype's behaviour. *)

val create : ?stats:stats -> ?solver_stats:Backtrack.stats -> ?capacity:int -> unit -> t
(** [solver_stats], when given, receives this cache's solver work (e.g.
    a shared engine-level record); otherwise the cache keeps its own. *)

val witness : t -> Logic.Subst.t option
val witnesses : t -> Logic.Subst.t list
val stats : t -> stats
val solver_stats : t -> Backtrack.stats
val invalidate : t -> unit

val set_witness : t -> Logic.Subst.t -> unit
(** Authoritative witness for a new composed body; spares are dropped. *)

type outcome =
  | Sat of Logic.Subst.t  (** witness found (and cached) *)
  | Unsat  (** composed body unsatisfiable: refuse admission *)
  | Exhausted of string  (** node budget or deadline ran out — NOT a rejection *)

val try_extend :
  ?node_limit:int ->
  ?deadline_ns:int64 ->
  t ->
  Relational.Database.t ->
  new_clauses:Logic.Formula.t ->
  full_formula:Logic.Formula.t Lazy.t ->
  outcome
(** Try to extend each cached witness over [new_clauses] (successful base
    promoted, LRU); on miss force and re-solve [full_formula].  Caches
    the resulting witness.  [full_formula] is lazy so extension hits
    never pay for flattening the whole body.  A per-base node-budget
    blowup tries the next base; a deadline blowup aborts the check.
    [Exhausted] means the verdict is unknown — the governor's retry /
    degrade / overload ladder owns what happens next. *)

val solve_full :
  ?node_limit:int -> ?deadline_ns:int64 -> t -> Relational.Database.t -> Logic.Formula.t -> outcome
(** One unseeded solve of the whole composed body, skipping witness
    extension (the from-scratch ablation and the governor's degraded
    full-recompose rung); stores the witness and counts a full solve. *)

val check_sat :
  ?conflict_limit:int ->
  ?deadline_ns:int64 ->
  t ->
  Sat.Inc.t ->
  Relational.Database.t ->
  chunks:Logic.Formula.t list ->
  live_vars:Logic.Term.Var_set.t ->
  outcome option
(** Incremental-SAT admission check: solve the per-transaction [chunks]
    in the persistent CDCL [session] under their activation literals.
    [None] when the body is not SAT-encodable — the caller falls back to
    the search solver.  A witness is restricted to [live_vars] and
    cached; budget blowups surface as [Exhausted] exactly like the
    backtracking path, so the same governor ladder applies. *)

val extend_or_resolve :
  ?node_limit:int ->
  t ->
  Relational.Database.t ->
  new_clauses:Logic.Formula.t ->
  full_formula:Logic.Formula.t Lazy.t ->
  Logic.Subst.t option
(** [try_extend] with the legacy option signature: [None] means
    unsatisfiable; exhaustion re-raises {!Backtrack.Too_many_nodes}. *)

val resolve_full :
  ?node_limit:int -> t -> Relational.Database.t -> Logic.Formula.t -> Logic.Subst.t option
(** [solve_full] with the legacy option signature (see
    {!extend_or_resolve}). *)

val revalidate : t -> Relational.Database.t -> Logic.Formula.t -> bool
(** After an external write: drop witnesses the current database no
    longer supports; [true] when at least one survives. *)

val restrict_witnesses : t -> Logic.Term.Var_set.t -> unit
(** Project every cached witness onto [vars], deduplicating collisions.
    Semantically neutral (a restriction of a satisfying valuation still
    satisfies); used after an aborted two-phase admission to drop
    bindings of the aborted transaction's dead variables. *)

val refill : ?node_limit:int -> t -> Relational.Database.t -> Logic.Formula.t -> int
(** Top the cache up to capacity with distinct witnesses (the paper's
    background-process role); returns the number now held.  Asks the
    solver for exactly [capacity] solutions and keeps the missing count
    after deduplicating fresh-vs-known {e and} fresh-vs-fresh. *)

(** {2 Split compute/install phases}

    The engine refills every partition's cache, and re-checks every
    partition a blind write touches, by computing all outcomes first and
    installing them only after every one succeeded: a failure part-way
    (a solver exception, an injected fault) then abandons a refill
    wholesale and installs nothing for a refused write.  The [*_compute]
    half is pure — it reads only the database, an immutable job and the
    caller-supplied [stats] record — while the [*_install] half mutates
    the cache, in deterministic partition order. *)

type refill_job

val refill_plan : t -> Logic.Formula.t -> refill_job option
(** [None] when the cache is already at capacity. *)

val refill_compute :
  ?node_limit:int ->
  stats:Backtrack.stats ->
  Relational.Database.t ->
  refill_job ->
  Logic.Subst.t list
(** Fresh witnesses, distinct from the job's known set and each other. *)

val refill_install : t -> Logic.Subst.t list -> int
(** Merge computed witnesses (re-deduplicating against the live cache,
    which may have moved since the plan); returns the number now held. *)

type recheck_outcome =
  | Keep of Logic.Subst.t list  (** surviving witnesses, order preserved *)
  | Rewitness of Logic.Subst.t  (** all dead, but a re-solve found one *)
  | Unsat_now  (** composed body unsatisfiable: refuse the write *)

val recheck_compute :
  ?node_limit:int ->
  stats:Backtrack.stats ->
  Relational.Database.t ->
  witnesses:Logic.Subst.t list ->
  formula:Logic.Formula.t ->
  recheck_outcome

val recheck_install : t -> recheck_outcome -> bool
(** Apply the outcome to the cache; [true] iff still satisfiable. *)
