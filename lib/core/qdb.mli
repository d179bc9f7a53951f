(** The quantum database engine (paper Sections 3–4).

    An extensional durable store plus an ordered set of pending resource
    transactions in independent partitions, maintaining the invariant that
    every partition's composed body is satisfiable — i.e. the set of
    possible worlds is never empty. *)

type serializability =
  | Strict  (** ground in arrival order (classical serializability) *)
  | Semantic  (** reorder-to-front when the reordered body stays satisfiable *)

type read_policy =
  | Collapse  (** fix impacted values at read time — the paper's default *)
  | Peek  (** answer from the current witness, fixing nothing *)
  | Expose  (** answers across a sample of possible worlds *)

type solver_backend =
  | Backtracking  (** dynamic-order search + solution cache (default) *)
  | Limit_one_plan of int  (** static plans, bounded optimizer lookahead *)
  | Sat_backend
      (** CNF admission backend (Section 6 offloading).  With
          [config.incremental] (the default) this is a first-class
          incremental CDCL backend: per-transaction chunks are encoded
          once into a persistent engine-wide session and solved under
          activation-literal assumptions, so learned clauses survive
          across admissions.  With [incremental = false] it is the
          from-scratch ablation — eager {!Sat.Encode} of the flattened
          body plus one DPLL run per admission.  Bodies the encoder
          cannot express (negative atoms, order constraints, oversized
          equality classes) fall back to the search solver, so admission
          outcomes are identical to {!Backtracking} in every case. *)

type config = {
  k : int;  (** max pending transactions per partition (prototype: 61) *)
  serializability : serializability;
  read_policy : read_policy;
  backend : solver_backend;
  check_inserts : bool;  (** emit insert key-safety clauses *)
  node_limit : int;
  adaptive : bool;  (** phase-transition-aware pre-emptive grounding *)
  adaptive_slack : float;
  cache_capacity : int;
      (** witnesses kept per partition — the multi-solution cache strategy
          of Section 4 (the paper's prototype kept one) *)
  incremental : bool;
      (** delta-composed, witness-seeded admission (default [true]).
          [false] is the from-scratch ablation: every admission recomposes
          the whole pending sequence and solves it unseeded.  Accept /
          reject outcomes are identical either way; only cost differs. *)
  governor : Governor.t;
      (** per-admission resource budget and degradation ladder
          (see {!Governor}); {!Governor.default} reproduces the engine's
          historical behaviour. *)
}

val default_config : config
val pending_table_name : string

type t

type commit_result =
  | Committed of int  (** admission id; values still unassigned *)
  | Rejected of string  (** the composed body is unsatisfiable — a semantic no *)
  | Overloaded of string
      (** the admission budget ran out even after the degradation ladder
          (escalated retries, full recompose) — NOT a semantic rejection.
          Partition chunks, caches and the WAL are untouched; resubmission
          with a larger budget may still commit. *)

exception Inconsistent of string
(** Internal invariant breach — never raised unless the store is mutated
    behind the engine's back. *)

exception Engine_overloaded of string
(** A grounding (not an admission) exhausted its solver budget even after
    escalation.  The pending set is left untouched. *)

val create : ?config:config -> Relational.Store.t -> t
(** Wrap a store; creates the pending-transactions table when missing.
    An engine is single-threaded: every operation, solver work included,
    runs on the calling thread.  Parallelism comes from running
    independent engines on partition actors ({!Actor.Runtime}). *)

val db : t -> Relational.Database.t
val metrics : t -> Metrics.t

val registry : t -> Obs.Registry.t
(** Telemetry snapshot for {!Obs.Export}: metrics counters and latency
    histograms plus live gauges (pending set, partition count, max
    partition size) and the store's WAL counters. *)

val config : t -> config
val pending_count : t -> int
val pending : t -> Rtxn.t list
val partition_count : t -> int
val max_partition_size : t -> int

val partition_stats : t -> (int * Logic.Formula.stats) list
(** Per partition: pending count and composed-body statistics — the join
    width a LIMIT-1 compilation would need (the prototype's MySQL ceiling
    was 61 relations per query). *)

val composed_clause_total : t -> int
(** Sum of the partitions' composed-body clause counts, read off the
    incremental chunk caches (also exported as the
    [qdb.partition.composed_clauses] gauge). *)

val sat_session_resets : t -> int
(** How many times the SAT backend's incremental session rebuilt itself
    under clause-budget pressure (0 when the backend never ran; also the
    [sat.session.resets] gauge). *)

val submit : ?governor:Governor.t -> t -> Rtxn.t -> commit_result
(** Admission check (Section 3.2.1): freshen, merge dependent partitions,
    enforce the k-bound by force-grounding the oldest, compose, check
    satisfiability through the configured backend, and durably record the
    pending transaction before acknowledging.  Entangled partners waiting
    for this transaction's label are grounded together with it.

    The check runs under [governor] (default: the engine config's) — on
    budget exhaustion it climbs the degradation ladder and, if that too
    runs dry, returns {!Overloaded} instead of guessing. *)

(** {2 Two-phase admission}

    The cross-partition exception path of the actor model: a coordinator
    holds admissions on several engines in the prepared state until all
    of them have voted.  Between an engine's [prepare] and the matching
    [commit_prepared] / [abort_prepared], no other operation may run on
    that engine (the owning actor's freeze window guarantees this in the
    actor runtime).

    Accounting: a refused [prepare] is a complete submission, counted
    with its outcome immediately; a successful [prepare] counts nothing
    until [commit_prepared]; an abort counts nothing — so
    committed + rejected + overloaded = submitted at every quiescent
    point. *)

type prepared
(** An admission that passed its satisfiability check but has not yet
    touched the partition sequence, the pending table or the WAL. *)

val prepare : ?governor:Governor.t -> t -> Rtxn.t -> (prepared, commit_result) result
(** Run the full admission check (freshen, merge, k-bound, compose,
    solve under the governor) and stop just short of durable mutation.
    [Error] carries the {!Rejected} / {!Overloaded} verdict. *)

val prepared_id : prepared -> int
(** The admission id the transaction will commit under. *)

val commit_prepared : t -> prepared -> commit_result
(** Finish a prepared admission: extend the partition, record the
    pending transaction durably, run post-commit work (cache refills,
    partner triggers, adaptive grounding).  Always {!Committed}. *)

val abort_prepared : t -> prepared -> unit
(** Walk away from a prepared admission.  No rollback is needed — a
    prepared admission has mutated exactly what a rejected one does
    (partition merges and k-pressure groundings persist by design) —
    only cache-witness hygiene runs. *)

type grounding = {
  txn : Rtxn.t;
  valuation : Logic.Subst.t;
  optional_satisfied : bool array;  (** per soft unit of this transaction *)
}

val set_ground_hook : t -> (grounding -> unit) -> unit
(** Observe every grounding, however triggered (explicit, read-induced,
    partner arrival, k-pressure) — the optional second notification of the
    paper's programming API ("values have now been assigned"). *)

val clear_ground_hook : t -> unit

val ground : t -> int -> grounding list
(** Fix the values of one pending transaction (Section 3.2.3).  Under
    [Strict] the whole arrival-order prefix grounds with it; under
    [Semantic] it is moved to the front when the reordered body stays
    satisfiable.  Returns every transaction grounded as a consequence. *)

val ground_all : t -> grounding list

val read : ?policy:read_policy -> t -> Solver.Query.t -> Relational.Tuple.t list
(** Answer a query under the configured read policy (overridable per
    read, as Section 3.2.2's application-specific discussion suggests);
    [Collapse] first grounds every pending transaction whose updates unify
    with a query atom (the conservative impact criterion). *)

val read_impact : t -> Solver.Query.t -> Rtxn.t list
val shadow_db : t -> Relational.Database.t

val write : t -> Relational.Database.op list -> (unit, string) result
(** Blind external write: admitted only when every affected partition's
    composed body stays satisfiable afterwards. *)

val set_fault_injector : t -> (kind:string -> fanout:int -> job:int -> unit) -> unit
(** Chaos hook: called before every per-partition job of a cache refill
    or blind-write re-check, with the job kind ("refill", "recheck"), a
    per-engine fan-out sequence number (one per refill or re-check round)
    and the job's input-order index.  Raising from the injector simulates
    a job crash; the engine must absorb it — refills are abandoned
    wholesale, write revalidations refuse conservatively — leaving state
    consistent and deterministic. *)

val clear_fault_injector : t -> unit

val invariant_holds : t -> bool
(** Test hook: recompose every partition from scratch, require the result
    satisfiable, the live incrementally-composed body to agree, and every
    cached witness to seed a successful solve of the from-scratch body. *)

val recovery_report : t -> Relational.Wal.recovery_report option
(** Set when this engine was produced by {!recover}: what WAL replay
    kept, what it dropped and why.  Also exported as [wal.recovery.*]
    gauges by {!registry}. *)

val recover : ?config:config -> ?strict:bool -> Relational.Wal.backend -> t
(** Crash recovery (Section 4): replay the WAL (leniently unless
    [~strict], truncating a damaged tail after the last complete batch),
    re-parse the pending-transactions table and rebuild partitions,
    composed bodies and witnesses. *)
