(** Soft (OPTIONAL) constraint maximization: find a valuation of the hard
    formula satisfying as many optional formulas as possible — the
    preference rule of Sections 2 and 3.1. *)

type outcome = {
  valuation : Logic.Subst.t;
  satisfied : bool array;  (** per optional formula, in input order *)
}

val exact_threshold : int
(** Up to this many optionals the subset sweep is exhaustive (optimal);
    beyond it a greedy drop-one descent is used. *)

val solve :
  ?node_limit:int ->
  ?seed:Logic.Subst.t ->
  ?stats:Backtrack.stats ->
  ?better_than:int ->
  Relational.Database.t ->
  hard:Logic.Formula.t ->
  soft:Logic.Formula.t list ->
  outcome option
(** Without [better_than], [None] only when the hard formula itself is
    unsatisfiable.  With [better_than = c], only subsets of more than [c]
    optionals are tried, so [None] also means "no valuation satisfies
    more than [c]" (as far as the search budget can tell) — the repair
    path that already holds a [c]-optional outcome skips the smaller
    subsets whose results it would discard. *)

val satisfied_count : outcome -> int
