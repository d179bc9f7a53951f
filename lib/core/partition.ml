(* Independent-set partitioning of pending transactions (Section 4,
   "Quantum State").

   Two pending transactions belong to the same partition when any of their
   atoms unify — the conservative dependence test of the paper.  Each
   partition carries its own composed body, its own solution cache and its
   own transaction order; transactions over disjoint resources (different
   flights) stay in different partitions, which is what keeps admission
   checks small and Figure 7 linear.

   A txn-id → partition hash table mirrors the partition lists, giving
   O(1) [find_txn] / [pending_count] instead of nested list walks; every
   membership change must therefore go through this module ([set_txns],
   [replace], [remove_partition], [resplit]). *)

open Logic

type partition = {
  pid : int;
  mutable txns : Rtxn.t list; (* sequence order: oldest (lowest id) first *)
  mutable body : Compose.Inc.t; (* composed hard body of [txns], chunk per txn *)
  cache : Solver.Cache.t;
}

let formula p = Compose.Inc.formula p.body
let composed_clauses p = Compose.Inc.clause_count p.body

type t = {
  mutable partitions : partition list;
  mutable next_pid : int;
  by_txn : (int, partition) Hashtbl.t; (* txn id -> owning partition *)
  cache_stats : Solver.Cache.stats;
  solver_stats : Solver.Backtrack.stats option; (* shared with partition caches *)
  (* recomposition settings, mirrored from the engine config *)
  key_of : Compose.key_resolver;
  check_inserts : bool;
  cache_capacity : int;
}

let create ?(cache_stats = Solver.Cache.fresh_stats ()) ?solver_stats
    ?(key_of = Compose.whole_tuple_key) ?(check_inserts = true)
    ?(cache_capacity = Solver.Cache.default_capacity) () =
  {
    partitions = [];
    next_pid = 0;
    by_txn = Hashtbl.create 64;
    cache_stats;
    solver_stats;
    key_of;
    check_inserts;
    cache_capacity;
  }

let partitions t = t.partitions
let pending_count t = Hashtbl.length t.by_txn
let all_pending t = List.concat_map (fun p -> p.txns) t.partitions

let find_txn t id =
  match Hashtbl.find_opt t.by_txn id with
  | None -> None
  | Some p ->
    (* The partition's own sequence is short (k-bounded). *)
    List.find_map (fun txn -> if txn.Rtxn.id = id then Some (p, txn) else None) p.txns

let register t p = List.iter (fun txn -> Hashtbl.replace t.by_txn txn.Rtxn.id p) p.txns
let unregister t p = List.iter (fun txn -> Hashtbl.remove t.by_txn txn.Rtxn.id) p.txns

(* The only sanctioned way to change a partition's membership: keeps the
   id → partition table in sync. *)
let set_txns t p txns =
  unregister t p;
  p.txns <- txns;
  register t p

(* The admission success path and recovery share one append: the
   sequence extension and the chunk-cache extension move together, so
   the id table, the transaction order and the composed body can never
   disagree about what was admitted. *)
let append_txn t p txn ~new_clauses =
  set_txns t p (p.txns @ [ txn ]);
  Compose.Inc.extend p.body new_clauses

let fresh_partition t txns body =
  let p =
    {
      pid = t.next_pid;
      txns;
      body;
      cache =
        Solver.Cache.create ~stats:t.cache_stats ?solver_stats:t.solver_stats
          ~capacity:t.cache_capacity ();
    }
  in
  t.next_pid <- t.next_pid + 1;
  register t p;
  p

let depends txn p =
  let atoms = Rtxn.dependence_atoms txn in
  List.exists (fun other -> Unify.any_unifiable atoms (Rtxn.dependence_atoms other)) p.txns

(* Partitions the new transaction touches, and the rest. *)
let split_dependent t txn = List.partition (depends txn) t.partitions

(* Merge partitions into a single transaction sequence ordered by admission
   id (= arrival order), with the conjoined formula.  Cross-clauses between
   formerly independent partitions are all vacuous, so conjunction is exact
   — asserted by the test suite against a from-scratch recomposition. *)
let merge_witnesses parts =
  List.fold_left
    (fun acc p ->
      match Solver.Cache.witness p.cache with
      | Some w ->
        Option.map
          (fun acc ->
            List.fold_left (fun acc (v, term) -> Subst.bind v term acc) acc (Subst.bindings w))
          acc
      | None -> None)
    (Some Subst.empty) parts

let merged_view parts =
  let txns =
    List.sort
      (fun a b -> Int.compare a.Rtxn.id b.Rtxn.id)
      (List.concat_map (fun p -> p.txns) parts)
  in
  let body = Compose.Inc.merge (List.map (fun p -> p.body) parts) in
  (txns, body)

(* Install a new partition holding [txns]/[body], replacing [old_parts];
   carries over a merged witness when every constituent had one. *)
let replace t old_parts txns body witness =
  let keep = List.filter (fun p -> not (List.memq p old_parts)) t.partitions in
  List.iter (unregister t) old_parts;
  let p = fresh_partition t txns body in
  (match witness with
   | Some w -> Solver.Cache.set_witness p.cache w
   | None -> ());
  t.partitions <- p :: keep;
  p

let remove_partition t p =
  unregister t p;
  t.partitions <- List.filter (fun q -> not (q == p)) t.partitions

(* After grounding removed transactions from [p], re-partition the
   remainder into independent sets (a grounded transaction may have been
   the only bridge between two groups). *)
let resplit t p =
  remove_partition t p;
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"qdb"
      ~args:[ ("partition", Obs.Trace.Int p.pid); ("txns", Obs.Trace.Int (List.length p.txns)) ]
      "qdb.partition_resplit";
  let groups : Rtxn.t list list ref = ref [] in
  List.iter
    (fun txn ->
      let atoms = Rtxn.dependence_atoms txn in
      let linked, free =
        List.partition
          (fun group ->
            List.exists
              (fun other -> Unify.any_unifiable atoms (Rtxn.dependence_atoms other))
              group)
          !groups
      in
      groups := (txn :: List.concat linked) :: free)
    p.txns;
  let witness = Solver.Cache.witness p.cache in
  List.map
    (fun group ->
      let txns = List.sort (fun a b -> Int.compare a.Rtxn.id b.Rtxn.id) group in
      let body = Compose.Inc.compose ~check_inserts:t.check_inserts ~key_of:t.key_of txns in
      let q = fresh_partition t txns body in
      (match witness with
       | Some w ->
         let vars =
           List.fold_left
             (fun acc txn -> Term.Var_set.union acc (Rtxn.all_vars txn))
             Term.Var_set.empty txns
         in
         Solver.Cache.set_witness q.cache (Subst.restrict vars w)
       | None -> ());
      t.partitions <- q :: t.partitions;
      q)
    !groups
