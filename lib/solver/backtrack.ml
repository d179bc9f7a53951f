(* Grounding search: find a valuation of a composed-body formula over the
   extensional database, or report that none exists.

   This is the satisfiability checker at the heart of the quantum database
   invariant (Section 3.2.1).  The paper's prototype compiles the composed
   body to a LIMIT 1 SQL query; we search directly with the same effect —
   an indexed nested-loop join that stops at the first answer:

   - equalities are unified eagerly (union-find style via Subst),
   - positive atoms are choice points enumerated through table indexes,
     picked most-constrained-first (smallest candidate estimate),
   - OR nodes (from unification predicates of inserts) are choice points
     over branches,
   - disequalities, order constraints and negated atoms are deferred until
     decided, in a watch index that wakes each one only when one of its
     variables is bound; constraints still open when all atoms are placed
     are vacuously satisfiable because the value universe is unbounded and
     the remaining variables are otherwise unconstrained. *)

module Value = Relational.Value
module Table = Relational.Table
module Database = Relational.Database
open Logic

type stats = {
  mutable nodes : int; (* choice points expanded *)
  mutable candidates : int; (* tuples / branches tried *)
  mutable backtracks : int;
  mutable propagations : int;
}

let fresh_stats () = { nodes = 0; candidates = 0; backtracks = 0; propagations = 0 }

let add_stats ~into s =
  into.nodes <- into.nodes + s.nodes;
  into.candidates <- into.candidates + s.candidates;
  into.backtracks <- into.backtracks + s.backtracks;
  into.propagations <- into.propagations + s.propagations

exception Too_many_nodes
exception Timed_out

(* Deadline checks are amortized: the monotonic clock is read once per
   [deadline_stride] expanded nodes, so an armed deadline costs one land
   and compare per choice point on the hot path. *)
let deadline_stride = 256

let check_deadline deadline_ns nodes =
  match deadline_ns with
  | None -> ()
  | Some d ->
    if nodes land (deadline_stride - 1) = 0 && Int64.compare (Obs.Mclock.now_ns ()) d > 0 then
      raise Timed_out

(* -- Goals ------------------------------------------------------------------ *)

(* A conjunction decomposes into two kinds of goal.  *Generators* —
   positive atoms and OR nodes — bind variables or branch; they stay in an
   ordered list that every propagation pass walks.  *Checks* —
   disequalities, order constraints, negated atoms and key-freedom — never
   bind and never branch: each is decided once its variables are bound.
   Checks live in a watch index instead of the list, filed under the
   variables they wait on, and are re-evaluated only when a binding
   touches one of them (the watched-literal idea of {!Sat.Cdcl}). *)

type gen =
  | G_atom of Atom.t
  | G_or of Formula.t list

type check =
  | C_neq of Term.t * Term.t
  | C_lt of Term.t * Term.t
  | C_le of Term.t * Term.t
  | C_not_atom of Atom.t
  | C_key_free of Atom.t

(* Every goal has a key: its position in the goal order the search would
   have if generators and checks shared one list.  Initial goals get
   [[i]]; a collapsed OR's goals take the OR's key extended by [i] (they
   sit where the OR sat); an OR branch's goals go in front of everything,
   under [[-f; i]] for a per-call counter [f] that grows with depth.  Keys
   order the interleaving of woken checks with the generator walk, so a
   pass finds the same first conflict — and counts the same propagations
   — as a walk over the merged list. *)
type key = int list

let rec compare_key (a : key) (b : key) =
  match a, b with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x < y then -1 else if x > y then 1 else compare_key a' b'

(* After every key: top-level keys are [[i]] with [i] a goal index. *)
let key_end = [ max_int ]

type generator = {
  gkey : key;
  gen : gen;
}

(* [check] is the form last evaluated; [filed] says the index already
   holds the entry under that form's variables (a new check is not yet
   filed anywhere). *)
type entry = {
  ckey : key;
  check : check;
  filed : bool;
}

(* Variable -> checks filed under it.  Entries under variables bound since
   filing are stale and harmless: a variable is bound once per search
   path, and re-evaluating a decided check decides it the same way. *)
type watch = entry list Term.Var_map.t

(* Decompose a conjunction into keyed goals under [prefix]: the
   generators in order, and the checks, in order, as new (unfiled)
   entries; [None] when a conjunct is [False].  Formula order is kept:
   ties in the branching heuristic fall back to list order, so callers can
   put the most conflict-prone obligations first (the grounding path
   relies on this to keep failures shallow). *)
let goals prefix f =
  let rec go f ((i, gens, checks) as acc) =
    let gen gen = Some (i + 1, { gkey = prefix @ [ i ]; gen } :: gens, checks) in
    let check check =
      Some (i + 1, gens, { ckey = prefix @ [ i ]; check; filed = false } :: checks)
    in
    match f with
    | Formula.True -> Some acc
    | Formula.False -> None
    | Formula.Atom a -> gen (G_atom a)
    | Formula.Not_atom a -> check (C_not_atom a)
    | Formula.Key_free a -> check (C_key_free a)
    | Formula.Eq _ ->
      (* Equalities are consumed by propagation before decomposition; keep
         them as a one-branch Or so the generic path handles stragglers. *)
      gen (G_or [ f ])
    | Formula.Neq (t1, t2) -> check (C_neq (t1, t2))
    | Formula.Lt (t1, t2) -> check (C_lt (t1, t2))
    | Formula.Le (t1, t2) -> check (C_le (t1, t2))
    | Formula.And fs -> List.fold_left (fun acc f -> Option.bind acc (go f)) (Some acc) fs
    | Formula.Or fs -> gen (G_or fs)
  in
  Option.map (fun (_, gens, checks) -> (List.rev gens, List.rev checks)) (go f (0, [], []))

(* Simplify a formula under the current bindings; cheap and local. *)
let simplify subst f = Formula.apply_subst subst f

exception Conflict

(* The decision rules of [Formula.neq] / [lt] / [le] on resolved terms,
   without building the open form: [true] holds, [false] open.
   @raise Conflict when the check fails. *)
let holds ~if_equal order t1 t2 =
  if Term.equal t1 t2 then if_equal || raise Conflict
  else
    match t1, t2 with
    | Term.C a, Term.C b -> order a b || raise Conflict
    | _ -> false

let neq_order a b = not (Value.equal a b)
let lt_order a b = Value.compare a b < 0
let le_order a b = Value.compare a b <= 0

let file_under v entry (watch : watch) : watch =
  match Term.Var_map.find_opt v watch with
  | None -> Term.Var_map.add v [ entry ] watch
  | Some l -> Term.Var_map.add v (entry :: l) watch

let first_var (a : Atom.t) =
  let args = a.Atom.args in
  let rec go i =
    if i >= Array.length args then None
    else
      match args.(i) with
      | Term.V v -> Some v
      | Term.C _ -> go (i + 1)
  in
  go 0

let is_new_var entry t1 t2 t =
  Term.is_var t && ((not entry.filed) || not (Term.equal t t1 || Term.equal t t2))

let run_binary watch entry a b t1 t2 =
  let new_a = is_new_var entry t1 t2 a and new_b = is_new_var entry t1 t2 b in
  if not (new_a || new_b) then watch
  else begin
    let check =
      match entry.check with
      | C_neq _ -> C_neq (a, b)
      | C_lt _ -> C_lt (a, b)
      | C_le _ -> C_le (a, b)
      | C_not_atom _ | C_key_free _ -> assert false
    in
    let entry' = { entry with check; filed = true } in
    let watch =
      match a with
      | Term.V v when new_a -> file_under v entry' watch
      | _ -> watch
    in
    match b with
    | Term.V v when new_b -> file_under v entry' watch
    | _ -> watch
  end

let run_atom db subst watch entry a =
  let a' = Subst.apply_atom subst a in
  match first_var a' with
  | Some v ->
    let check =
      if a' == a then entry.check
      else
        match entry.check with
        | C_not_atom _ -> C_not_atom a'
        | _ -> C_key_free a'
    in
    file_under v { entry with check; filed = true } watch
  | None ->
    let tuple = Atom.to_tuple a' in
    let fails =
      match entry.check with
      | C_not_atom _ -> Database.mem_tuple db a'.Atom.rel tuple
      | _ -> Database.key_occupied db a'.Atom.rel tuple
    in
    if fails then raise Conflict else watch

(* Evaluate [entry] under [subst] and keep the index current.  A holding
   check needs nothing.  An open binary check is filed under both of its
   variables, since either binding can decide it (including [x := y] on
   [x <> y]); only a variable new to this form needs a filing — the others
   already hold one.  An open atom check is decided only once ground, so
   one watch suffices: it moves to the form's first variable whenever it
   is evaluated (its previous watch, if any, was just bound).
   @raise Conflict when the check fails. *)
let run_check db subst watch entry =
  match entry.check with
  | C_neq (t1, t2) ->
    let a = Subst.resolve subst t1 and b = Subst.resolve subst t2 in
    if holds ~if_equal:false neq_order a b then watch else run_binary watch entry a b t1 t2
  | C_lt (t1, t2) ->
    let a = Subst.resolve subst t1 and b = Subst.resolve subst t2 in
    if holds ~if_equal:false lt_order a b then watch else run_binary watch entry a b t1 t2
  | C_le (t1, t2) ->
    let a = Subst.resolve subst t1 and b = Subst.resolve subst t2 in
    if holds ~if_equal:true le_order a b then watch else run_binary watch entry a b t1 t2
  | C_not_atom a | C_key_free a -> run_atom db subst watch entry a

(* [woken] sorted by key without duplicates.  A watch list is built by
   prepending, mostly in key order, so it usually comes strictly
   descending and a reversal sorts it. *)
let sort_woken woken =
  let rec descending = function
    | x :: (y :: _ as rest) -> compare_key x.ckey y.ckey > 0 && descending rest
    | [ _ ] | [] -> true
  in
  if descending woken then List.rev woken
  else List.sort_uniq (fun x y -> compare_key x.ckey y.ckey) woken

(* Merge [woken] (any order, possibly with duplicates) into the sorted,
   duplicate-free queue [queue]. *)
let merge_woken woken queue =
  let rec merge a b =
    match a, b with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
      let c = compare_key x.ckey y.ckey in
      if c < 0 then x :: merge a' b
      else if c > 0 then y :: merge a b'
      else x :: merge a' b'
  in
  match woken with
  | [] -> queue
  | _ -> merge (sort_woken woken) queue

let woken_by watch v =
  match Term.Var_map.find_opt v watch with
  | None -> []
  | Some l -> l

(* The variable a successful [Unify.unify_terms subst t1 t2] binds. *)
let bound_by_unify subst t1 t2 =
  match Subst.resolve subst t1, Subst.resolve subst t2 with
  | Term.V v1, Term.V v2 when Term.equal_var v1 v2 -> None
  | Term.V v, _ | Term.C _, Term.V v -> Some v
  | Term.C _, Term.C _ -> None

(* One propagation pass: walk the generators in order, evaluating each due
   check (sorted by key) when the walk reaches its key.  Ground atoms are
   looked up and dropped, OR nodes re-simplified; an OR that collapses to
   an equality binds a variable and wakes its checks — due later in this
   pass when they sit after the OR, in [next] (the next pass) when before.
   Returns the extended substitution, the remaining generators (the input
   list itself when the pass changed none), the index, [next], and whether
   anything was bound.  @raise Conflict. *)
let propagate db stats subst watch gens due =
  let subst = ref subst and watch = ref watch and due = ref due in
  let next = ref [] and bound = ref false in
  let rec run_due_before key =
    match !due with
    | entry :: rest when compare_key entry.ckey key < 0 ->
      due := rest;
      watch := run_check db !subst !watch entry;
      run_due_before key
    | _ -> ()
  in
  (* The walk rebuilds only the prefix up to the last changed generator. *)
  let rec walk gens =
    match gens with
    | [] ->
      run_due_before key_end;
      gens
    | g :: rest ->
      run_due_before g.gkey;
      (match g.gen with
       | G_atom a ->
         let a' = Subst.apply_atom !subst a in
         if Atom.is_ground a' then begin
           stats.propagations <- stats.propagations + 1;
           if Database.mem_tuple db a'.Atom.rel (Atom.to_tuple a') then walk rest
           else raise Conflict
         end
         else
           let rest' = walk rest in
           if a' == a && rest' == rest then gens else { g with gen = G_atom a' } :: rest'
       | G_or fs ->
         (match Formula.or_ (List.map (simplify !subst) fs) with
          | Formula.True -> walk rest
          | Formula.False -> raise Conflict
          | Formula.Eq (t1, t2) ->
            (* The disjunction collapsed to a single equality: unify now,
               and wake what the binding touches. *)
            let v = bound_by_unify !subst t1 t2 in
            (match Unify.unify_terms !subst t1 t2 with
             | None -> raise Conflict
             | Some s -> subst := s);
            Option.iter
              (fun v ->
                let after, before =
                  List.partition (fun e -> compare_key e.ckey g.gkey > 0) (woken_by !watch v)
                in
                due := merge_woken after !due;
                next := merge_woken before !next;
                bound := true)
              v;
            walk rest
          | Formula.And _ as f ->
            (* Collapsed to one branch: its goals sit where the OR sat. *)
            (match goals g.gkey f with
             | Some (gens', checks') ->
               due := checks' @ !due;
               walk (gens' @ rest)
             | None -> raise Conflict)
          | Formula.Atom a -> walk ({ g with gen = G_atom a } :: rest)
          | Formula.Not_atom a -> walk_check g (C_not_atom a) rest
          | Formula.Key_free a -> walk_check g (C_key_free a) rest
          | Formula.Neq (t1, t2) -> walk_check g (C_neq (t1, t2)) rest
          | Formula.Lt (t1, t2) -> walk_check g (C_lt (t1, t2)) rest
          | Formula.Le (t1, t2) -> walk_check g (C_le (t1, t2)) rest
          | Formula.Or fs -> { g with gen = G_or fs } :: walk rest))
  (* An OR collapsed to a single check: evaluated in the OR's place. *)
  and walk_check g check rest =
    due := { ckey = g.gkey; check; filed = false } :: !due;
    walk rest
  in
  let gens = walk gens in
  (!subst, gens, !watch, !next, !bound)

(* Pass to a fixpoint: another pass is needed only when a binding woke
   checks (or atoms) sitting before the binding's position.  A pass that
   binds nothing would recompute exactly what it read, so it is skipped.
   Returns [None] on conflict. *)
let rec propagate_fix db stats subst watch gens due =
  match propagate db stats subst watch gens due with
  | exception Conflict -> None
  | subst, gens, watch, next, bound ->
    if bound then propagate_fix db stats subst watch gens next else Some (subst, gens, watch)

(* The checks a node's binding of [vars] wakes, as a sorted due queue. *)
let woken_by_vars watch vars =
  merge_woken (List.concat_map (woken_by watch) vars) []

let atom_vars (a : Atom.t) =
  Array.fold_left
    (fun acc t ->
      match t with
      | Term.V v -> v :: acc
      | Term.C _ -> acc)
    [] a.Atom.args

(* Estimate cache for one solve call: [pick_branch] re-ranks every goal at
   every choice point, and distinct goals with the same post-substitution
   (relation, pattern) shape share one [Table.estimate_matches] answer.
   Entries remember the table version they were computed at, so a table
   mutation invalidates them (a stale entry misses instead of lying). *)
type est_cache = (string * Table.pattern, int * int) Hashtbl.t

(* Candidate estimate for branching choice, through the cache. *)
let atom_estimate_cached db (cache : est_cache) subst a =
  let a = Subst.apply_atom subst a in
  match Database.find_table db a.Atom.rel with
  | None -> 0
  | Some table ->
    let pat = Atom.to_pattern a in
    let key = (a.Atom.rel, pat) in
    let version = Table.version table in
    (match Hashtbl.find_opt cache key with
     | Some (v, est) when v = version -> est
     | _ ->
       let est = Table.estimate_matches table pat in
       Hashtbl.replace cache key (version, est);
       est)

(* Does any branch of the disjunction contain a positive atom?  Such OR
   nodes are *generators* (e.g. ground-on-db vs ground-on-pending-insert
   options) and are worth branching early; OR nodes made purely of
   (dis)equalities are *constraints* (negated unification predicates) and
   branching them first multiplies the search by 2^#pairs — they must be
   left to propagation, which decides them as atoms ground. *)
let rec formula_has_atom = function
  | Formula.Atom _ -> true
  | Formula.And fs | Formula.Or fs -> List.exists formula_has_atom fs
  | Formula.True | Formula.False | Formula.Not_atom _ | Formula.Key_free _ | Formula.Eq _
  | Formula.Neq _ | Formula.Lt _ | Formula.Le _ -> false

(* Pick the generator to branch on: the positive atom or generator-OR
   node with the fewest alternatives; constraint-OR nodes only when
   nothing else is left.  Returns the generator and the list without it. *)
let pick_branch db cache subst gens =
  let best = ref None and fallback = ref None in
  let consider cell g cost =
    match !cell with
    | Some (_, c) when c <= cost -> ()
    | _ -> cell := Some (g, cost)
  in
  (try
     List.iter
       (fun g ->
         match g.gen with
         | G_atom a ->
           let cost = atom_estimate_cached db cache subst a in
           consider best g cost;
           (* An empty candidate set cannot be beaten, and ties break to
              the first goal in list order either way: stop scanning.
              (OR goals always cost >= 1, so this is the global minimum.) *)
           if cost = 0 then raise Exit
         | G_or fs ->
           if List.exists formula_has_atom fs then consider best g (List.length fs)
           else consider fallback g (List.length fs))
       gens
   with Exit -> ());
  let chosen =
    match !best with
    | Some _ as b -> b
    | None -> !fallback
  in
  match chosen with
  | None -> None
  | Some (g, _) -> Some (g, List.filter (fun g' -> g' != g) gens)

(* The goals of one OR branch, in front of every goal already pending. *)
let branch_goals front subst branch =
  decr front;
  goals [ !front ] (simplify subst branch)

let default_node_limit = 2_000_000

(* Both entry points start the same way: the whole formula's goals keyed
   in order, every check due in the first pass. *)
let initial_goals seed formula = goals [] (simplify seed formula)

let solve_goals ?(node_limit = default_node_limit) ?deadline_ns db stats subst (gens, checks) =
  (* The budget is per call: [stats] may be a long-lived cumulative
     counter shared across the engine's lifetime. *)
  let base_nodes = stats.nodes in
  let node_ceiling = base_nodes + node_limit in
  let cache : est_cache = Hashtbl.create 64 in
  let front = ref 0 in
  let rec search subst gens watch due =
    if stats.nodes > node_ceiling then raise Too_many_nodes;
    (* Stride relative to this call's entry: [stats] is cumulative and
       need not be 256-aligned, and the very first check (offset 0) makes
       an already-expired deadline fire before any search happens. *)
    check_deadline deadline_ns (stats.nodes - base_nodes);
    match propagate_fix db stats subst watch gens due with
    | None -> None
    | Some (subst, gens, watch) ->
      (match pick_branch db cache subst gens with
       | None ->
         (* Only open checks remain, each with at least one unbound,
            otherwise-unconstrained variable: vacuously satisfiable over
            an unbounded value universe. *)
         Some subst
       | Some (g, rest) ->
         stats.nodes <- stats.nodes + 1;
         (match g.gen with
          | G_atom a ->
            let a = Subst.apply_atom subst a in
            (match Database.find_table db a.Atom.rel with
             | None -> None
             | Some table ->
               (* Primary-key-ordered streaming enumeration, straight off
                  the table's sorted index buckets: deterministic, no
                  per-choice-point materialization or sort, and it *packs*
                  witnesses into the low end of each resource domain,
                  which keeps contiguous resources (whole seat rows) free
                  for later coordination constraints.  Measurably better
                  than hash order for the seeded grounding solves.  Every
                  candidate binds the same variables, so the checks they
                  wake are gathered once per node. *)
               let candidates = Table.lookup_seq table (Atom.to_pattern a) in
               try_tuples a rest watch (woken_by_vars watch (atom_vars a)) subst candidates)
          | G_or fs -> try_branches rest watch subst fs))
  and try_tuples a rest watch due subst candidates =
    match Seq.uncons candidates with
    | None ->
      stats.backtracks <- stats.backtracks + 1;
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"solver"
          ~args:[ ("rel", Obs.Trace.Str a.Atom.rel); ("node", Obs.Trace.Int stats.nodes) ]
          "solver.backtrack";
      None
    | Some (tuple, more) ->
      stats.candidates <- stats.candidates + 1;
      let ground = Atom.of_tuple a.Atom.rel tuple in
      (match Unify.mgu ~subst a ground with
       | Some subst' ->
         (match search subst' rest watch due with
          | Some _ as result -> result
          | None -> try_tuples a rest watch due subst more)
       | None -> try_tuples a rest watch due subst more)
  and try_branches rest watch subst = function
    | [] ->
      stats.backtracks <- stats.backtracks + 1;
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"solver"
          ~args:[ ("rel", Obs.Trace.Str "or"); ("node", Obs.Trace.Int stats.nodes) ]
          "solver.backtrack";
      None
    | branch :: more ->
      stats.candidates <- stats.candidates + 1;
      (match branch_goals front subst branch with
       | Some (gens, checks) ->
         (match search subst (gens @ rest) watch checks with
          | Some _ as result -> result
          | None -> try_branches rest watch subst more)
       | None -> try_branches rest watch subst more)
  in
  search subst gens Term.Var_map.empty checks

(* One span per solve call, reporting the search effort it added to the
   (possibly shared, cumulative) stats record. *)
let solve_span name stats found f =
  if not (Obs.Trace.on ()) then f ()
  else begin
    let nodes0 = stats.nodes and backtracks0 = stats.backtracks in
    let candidates0 = stats.candidates in
    Obs.Trace.span ~cat:"solver"
      ~args:(fun () ->
        [ ("nodes", Obs.Trace.Int (stats.nodes - nodes0));
          ("candidates", Obs.Trace.Int (stats.candidates - candidates0));
          ("backtracks", Obs.Trace.Int (stats.backtracks - backtracks0));
          ("found", Obs.Trace.Bool (found ()));
        ])
      name f
  end

let solve ?node_limit ?deadline_ns ?(seed = Subst.empty) ?stats db formula =
  let stats =
    match stats with
    | Some s -> s
    | None -> fresh_stats ()
  in
  let result = ref None in
  solve_span "solver.solve" stats
    (fun () -> Option.is_some !result)
    (fun () ->
      match initial_goals seed formula with
      | None -> None
      | Some goals ->
        let r = solve_goals ?node_limit ?deadline_ns db stats seed goals in
        result := r;
        r)

let satisfiable ?node_limit ?deadline_ns ?seed ?stats db formula =
  Option.is_some (solve ?node_limit ?deadline_ns ?seed ?stats db formula)

(* -- All-solutions enumeration (read queries, possible-worlds checks) ----- *)

let solutions ?(node_limit = default_node_limit) ?deadline_ns ?(seed = Subst.empty) ?stats
    ?(limit = max_int) db formula =
  let stats =
    match stats with
    | Some s -> s
    | None -> fresh_stats ()
  in
  let results = ref [] in
  let count = ref 0 in
  let exception Done in
  let emit subst =
    results := subst :: !results;
    incr count;
    if !count >= limit then raise Done
  in
  let base_nodes = stats.nodes in
  let node_ceiling = base_nodes + node_limit in
  let cache : est_cache = Hashtbl.create 64 in
  let front = ref 0 in
  let rec search subst gens watch due =
    if stats.nodes > node_ceiling then raise Too_many_nodes;
    check_deadline deadline_ns (stats.nodes - base_nodes);
    match propagate_fix db stats subst watch gens due with
    | None -> ()
    | Some (subst, gens, watch) ->
      (match pick_branch db cache subst gens with
       | None -> emit subst
       | Some (g, rest) ->
         stats.nodes <- stats.nodes + 1;
         (* A choice point none of whose alternatives led to a solution is
            one dead end — the same accounting [solve] uses for an empty
            candidate stream.  [Done] (the enumeration limit) escapes
            before the increment, like a success would. *)
         let emitted = !count in
         (match g.gen with
          | G_atom a ->
            let a = Subst.apply_atom subst a in
            (match Database.find_table db a.Atom.rel with
             | None -> ()
             | Some table ->
               let due = woken_by_vars watch (atom_vars a) in
               Seq.iter
                 (fun tuple ->
                   stats.candidates <- stats.candidates + 1;
                   match Unify.mgu ~subst a (Atom.of_tuple a.Atom.rel tuple) with
                   | Some subst' -> search subst' rest watch due
                   | None -> ())
                 (Table.lookup_seq table (Atom.to_pattern a)))
          | G_or fs ->
            List.iter
              (fun branch ->
                stats.candidates <- stats.candidates + 1;
                match branch_goals front subst branch with
                | Some (gens, checks) -> search subst (gens @ rest) watch checks
                | None -> ())
              fs);
         if !count = emitted then begin
           stats.backtracks <- stats.backtracks + 1;
           if Obs.Trace.on () then
             Obs.Trace.instant ~cat:"solver"
               ~args:[ ("node", Obs.Trace.Int stats.nodes) ]
               "solver.backtrack"
         end)
  in
  solve_span "solver.solutions" stats
    (fun () -> !results <> [])
    (fun () ->
      (try
         match initial_goals seed formula with
         | None -> ()
         | Some (gens, checks) -> search seed gens Term.Var_map.empty checks
       with Done -> ());
      List.rev !results)
