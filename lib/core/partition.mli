(** Independent-set partitioning of pending transactions: the "Quantum
    State" organisation of the paper's prototype.  Each partition owns a
    transaction sequence, its composed body and a solution cache. *)

type partition = {
  pid : int;
  mutable txns : Rtxn.t list;
      (** sequence order, oldest first.  Mutate only through
          {!set_txns} — an id → partition table mirrors membership. *)
  mutable body : Compose.Inc.t;
      (** composed hard body, one clause chunk per transaction; admission
          extends it in place ({!Compose.Inc.extend}) and the invalidation
          paths (ground / abort / blind write) swap in a fresh
          composition. *)
  cache : Solver.Cache.t;
}

val formula : partition -> Logic.Formula.t
(** The flattened composed body (memoized by the chunk cache). *)

val composed_clauses : partition -> int
(** Top-level clause count of the composed body (observability gauge). *)

type t

val create :
  ?cache_stats:Solver.Cache.stats ->
  ?solver_stats:Solver.Backtrack.stats ->
  ?key_of:Compose.key_resolver ->
  ?check_inserts:bool ->
  ?cache_capacity:int ->
  unit ->
  t
(** [solver_stats], when given, is shared with every partition cache so
    engine-level telemetry sees cache-path solver work. *)

val partitions : t -> partition list

val pending_count : t -> int
(** O(1): size of the maintained id → partition table. *)

val all_pending : t -> Rtxn.t list

val find_txn : t -> int -> (partition * Rtxn.t) option
(** O(1) partition lookup through the id table (plus a scan of that
    partition's short, k-bounded sequence). *)

val set_txns : t -> partition -> Rtxn.t list -> unit
(** Replace a partition's transaction sequence, keeping the id table in
    sync.  The only sanctioned way to change membership from outside. *)

val append_txn : t -> partition -> Rtxn.t -> new_clauses:Logic.Formula.t -> unit
(** Append an admitted transaction: extend the sequence (via
    {!set_txns}) and the composed chunk cache together.  [new_clauses]
    must be the delta composition of the transaction against the
    partition's current sequence. *)

val depends : Rtxn.t -> partition -> bool
(** Conservative: any atom of the transaction unifies with any atom of a
    partition member. *)

val split_dependent : t -> Rtxn.t -> partition list * partition list

val merged_view : partition list -> Rtxn.t list * Compose.Inc.t
(** Transactions of all parts in admission order, with the merged chunk
    cache (concatenation is exact, because the parts were independent). *)

val merge_witnesses : partition list -> Logic.Subst.t option
(** Union of the cached witnesses; [None] when any part lacks one. *)

val replace :
  t -> partition list -> Rtxn.t list -> Compose.Inc.t -> Logic.Subst.t option -> partition
(** Swap [old_parts] for a single fresh partition. *)

val remove_partition : t -> partition -> unit

val resplit : t -> partition -> partition list
(** Re-partition a partition's transactions into independent sets after
    groundings removed members; recomposes each group's body and projects
    the witness onto it. *)
