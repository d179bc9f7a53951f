(* Soft (OPTIONAL) constraint maximization.

   Semantics from Sections 2 and 3.1: the system only guarantees the hard
   body; when values are fixed, an assignment satisfying as many optional
   conditions as possible must be preferred.  We search subsets of the
   optional formulas from largest to smallest; for more optionals than
   [exact_threshold] the exponential sweep is replaced by a greedy
   drop-one-at-a-time descent (documented deviation: greedy may be
   suboptimal, but resource transactions carry at most a handful of
   optional atoms in all paper workloads). *)

open Logic

type outcome = {
  valuation : Subst.t;
  satisfied : bool array; (* which optional formulas the valuation honours *)
}

let exact_threshold = 12

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let subsets_by_size n =
  (* All bitmasks over n elements, largest popcount first; n <= exact_threshold. *)
  let masks = List.init (1 lsl n) Fun.id in
  List.sort (fun a b -> Int.compare (popcount b) (popcount a)) masks

let formula_of_mask hard soft mask =
  let chosen =
    List.filteri (fun i _ -> mask land (1 lsl i) <> 0) soft
  in
  (* Optionals first: they are the tight constraints, and the solver breaks
     branching ties by goal order, so putting them ahead of the hard body
     keeps their conflicts shallow in the search tree. *)
  Formula.and_ (chosen @ [ hard ])

let flags_of_mask n mask = Array.init n (fun i -> mask land (1 lsl i) <> 0)

(* One attempt at a mask.  Exhausting the node budget while *optionals*
   are in play is treated as "this subset cannot be satisfied cheaply" and
   the search moves to a smaller subset — optionals are best-effort by
   definition (Section 2), so trading completeness of the *preference*
   maximization for bounded latency is semantically safe.  The hard-only
   mask must stay exact, so its budget overrun propagates.  A mask that
   cannot beat [better_than] satisfied optionals is not run at all: the
   caller would discard whatever it found. *)
let attempt ?node_limit ?seed ?stats ~better_than db hard soft n mask =
  if popcount mask <= better_than then None
  else
    let f = formula_of_mask hard soft mask in
    match Backtrack.solve ?node_limit ?seed ?stats db f with
    | Some valuation -> Some { valuation; satisfied = flags_of_mask n mask }
    | None -> None
    | exception Backtrack.Too_many_nodes when mask <> 0 -> None

let solve_exact ?node_limit ?seed ?stats ~better_than db hard soft =
  let n = List.length soft in
  let rec try_masks = function
    | [] -> None
    | mask :: rest ->
      (match attempt ?node_limit ?seed ?stats ~better_than db hard soft n mask with
       | Some _ as outcome -> outcome
       | None -> try_masks rest)
  in
  try_masks (subsets_by_size n)

let solve_greedy ?node_limit ?seed ?stats ~better_than db hard soft =
  let n = List.length soft in
  let full_mask = (1 lsl n) - 1 in
  let attempt = attempt ?node_limit ?seed ?stats ~better_than db hard soft n in
  let descend mask =
    match attempt mask with
    | Some _ as outcome -> outcome
    | None ->
      if mask = 0 then None
      else begin
        (* Drop the optional whose removal first yields a solution. *)
        let rec drop i =
          if i >= n then None
          else if mask land (1 lsl i) = 0 then drop (i + 1)
          else
            let mask' = mask land lnot (1 lsl i) in
            match attempt mask' with
            | Some _ as outcome -> outcome
            | None -> drop (i + 1)
        in
        match drop 0 with
        | Some _ as result -> result
        | None ->
          (* No single drop helps; abandon all optionals. *)
          attempt 0
      end
  in
  descend full_mask

let solve ?node_limit ?seed ?stats ?(better_than = -1) db ~hard ~soft =
  match soft with
  | [] when better_than < 0 ->
    Backtrack.solve ?node_limit ?seed ?stats db hard
    |> Option.map (fun valuation -> { valuation; satisfied = [||] })
  | [] -> None
  | _ ->
    if List.length soft <= exact_threshold then
      solve_exact ?node_limit ?seed ?stats ~better_than db hard soft
    else solve_greedy ?node_limit ?seed ?stats ~better_than db hard soft

let satisfied_count outcome = Array.fold_left (fun n b -> if b then n + 1 else n) 0 outcome.satisfied
