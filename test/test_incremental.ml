(* Tests for the incremental-admission path: randomized equivalence of
   delta composition with from-scratch recomposition, outcome identity of
   the [incremental] ablation, formula
   interning, table versioning for the estimate cache, and backtrack
   accounting in the all-solutions enumerator. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Database = Relational.Database
module Table = Relational.Table
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel
module Prng = Workload.Prng
open Logic

let geometry = { Flights.flights = 2; rows_per_flight = 2; dest = "LA" }
let user name flight = { Travel.name; partner = "-"; flight }

(* -- Randomized workload traces ------------------------------------------- *)

type op =
  | Submit of Travel.user
  | Ground_nth of int  (** ground the n-th (mod size) pending transaction *)
  | Ground_all

let gen_trace rng len =
  List.init len (fun i ->
      let r = Prng.int rng 100 in
      if r < 70 then Submit (user (Printf.sprintf "u%d" i) (Prng.int rng geometry.Flights.flights))
      else if r < 90 then Ground_nth (Prng.int rng 8)
      else Ground_all)

(* Replay a trace on a fresh engine; the outcome string is a full
   observable transcript (commit/reject per submit, grounding counts), so
   equality of transcripts is outcome identity. *)
let apply_trace ~incremental trace =
  let store = Flights.fresh_store geometry in
  let config = { Qdb.default_config with Qdb.k = 6; cache_capacity = 2; incremental } in
  let qdb = Qdb.create ~config store in
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Submit u ->
          (match Qdb.submit qdb (Travel.plain_txn u) with
           | Qdb.Committed id -> Printf.sprintf "c%d" id
           | Qdb.Rejected _ | Qdb.Overloaded _ -> "r")
        | Ground_nth n ->
          (match Qdb.pending qdb with
           | [] -> "g-"
           | ps ->
             let txn = List.nth ps (n mod List.length ps) in
             Printf.sprintf "g%d" (List.length (Qdb.ground qdb txn.Rtxn.id)))
        | Ground_all -> Printf.sprintf "G%d" (List.length (Qdb.ground_all qdb)))
      trace
  in
  (qdb, outcomes)

(* 200 seeded traces: after each, every partition's incrementally
   composed body must agree with a from-scratch recomposition and every
   cached witness must still seed it ([Qdb.invariant_holds] checks all
   three since the incremental rework). *)
let test_trace_equivalence () =
  for seed = 1 to 200 do
    let trace = gen_trace (Prng.create seed) 12 in
    let qdb, _ = apply_trace ~incremental:true trace in
    Alcotest.(check bool)
      (Printf.sprintf "incremental body equivalent (seed %d)" seed)
      true (Qdb.invariant_holds qdb)
  done

(* Seeded-then-fallback admission must accept and reject exactly like the
   from-scratch ablation. *)
let test_ablation_outcome_identity () =
  for seed = 201 to 240 do
    let trace = gen_trace (Prng.create seed) 12 in
    let _, inc = apply_trace ~incremental:true trace in
    let _, scratch = apply_trace ~incremental:false trace in
    Alcotest.(check (list string))
      (Printf.sprintf "incremental = from-scratch (seed %d)" seed)
      scratch inc
  done

(* Rejections must leave the chunk cache untouched: fill a 3-seat flight,
   bounce a fourth booking off it, and re-check equivalence. *)
let test_rejection_leaves_body () =
  let store = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 1; dest = "LA" } in
  let qdb = Qdb.create ~config:{ Qdb.default_config with Qdb.k = 10 } store in
  List.iter
    (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n 0))))
    [ "a"; "b"; "c" ];
  (match Qdb.submit qdb (Travel.plain_txn (user "d" 0)) with
   | Qdb.Rejected _ | Qdb.Overloaded _ -> ()
   | Qdb.Committed _ -> Alcotest.fail "4th booking on 3 seats must be rejected");
  Alcotest.(check bool) "body untouched by rejection" true (Qdb.invariant_holds qdb);
  Alcotest.(check int) "clauses still the committed three's"
    (Qdb.composed_clause_total qdb)
    (let store' = Flights.fresh_store { Flights.flights = 1; rows_per_flight = 1; dest = "LA" } in
     let qdb' = Qdb.create ~config:{ Qdb.default_config with Qdb.k = 10 } store' in
     List.iter
       (fun n -> ignore (Qdb.submit qdb' (Travel.plain_txn (user n 0))))
       [ "a"; "b"; "c" ];
     Qdb.composed_clause_total qdb')

(* Crash-monkey under the incremental default: recovery rebuilds chunk
   caches; any disagreement with recomposition shows up as a violation. *)
let test_crash_monkey_incremental () =
  let summary = Workload.Crash_monkey.run ~cycles:40 ~seed:23 () in
  Alcotest.(check (list (pair int string)))
    "no recovery violations" [] summary.Workload.Crash_monkey.violations

(* -- Observability ---------------------------------------------------------- *)

let test_composed_clauses_gauge () =
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  List.iter (fun n -> ignore (Qdb.submit qdb (Travel.plain_txn (user n 0)))) [ "a"; "b" ];
  let reg = Qdb.registry qdb in
  let items = Obs.Registry.items reg in
  let gauge name =
    List.find_map
      (function
        | n, Obs.Registry.Gauge v when n = name -> Some v
        | _ -> None)
      items
  in
  (match gauge "qdb.partition.composed_clauses" with
   | Some v ->
     Alcotest.(check int) "gauge matches accessor" (Qdb.composed_clause_total qdb)
       (int_of_float v)
   | None -> Alcotest.fail "qdb.partition.composed_clauses gauge missing");
  Alcotest.(check bool) "total is positive with pending txns" true
    (Qdb.composed_clause_total qdb > 0)

(* -- Interning and sharing -------------------------------------------------- *)

let test_intern_equivalence () =
  let v = Term.V (Term.fresh_var "x") and w = Term.V (Term.fresh_var "y") in
  let f =
    Formula.and_
      [ Formula.Atom (Atom.make "R" [ v; w ]);
        Formula.or_ [ Formula.Eq (v, Term.int 1); Formula.Neq (w, Term.int 2) ];
        Formula.Not_atom (Atom.make "S" [ w ]);
      ]
  in
  Alcotest.(check bool) "intern preserves structure" true (Formula.intern f = f);
  Alcotest.(check bool) "interning is idempotent and shares" true
    (Formula.intern f == Formula.intern f)

let test_apply_subst_sharing () =
  let v = Term.V (Term.fresh_var "x") in
  let f =
    Formula.and_
      [ Formula.Atom (Atom.make "R" [ v; Term.int 3 ]); Formula.Neq (v, Term.int 1) ]
  in
  Alcotest.(check bool) "no-op substitution returns the formula itself" true
    (Formula.apply_subst Subst.empty f == f)

(* -- Table versioning (estimate-cache invalidation) ------------------------- *)

let test_table_version () =
  let db = Database.create () in
  let t =
    Database.create_table db
      (Schema.make ~name:"V"
         ~columns:[ Schema.column "a" Value.Tint; Schema.column "b" Value.Tint ]
         ~key:[ "a" ] ())
  in
  Alcotest.(check int) "fresh table at version 0" 0 (Table.version t);
  ignore (Table.insert t (Tuple.of_list [ Value.Int 1; Value.Int 10 ]));
  let v1 = Table.version t in
  Alcotest.(check bool) "insert bumps" true (v1 > 0);
  ignore (Table.delete t (Tuple.of_list [ Value.Int 1; Value.Int 10 ]));
  Alcotest.(check bool) "delete bumps" true (Table.version t > v1)

(* -- Solutions backtrack accounting ----------------------------------------- *)

(* On an exhaustive (unsatisfiable) search both entry points explore the
   same tree, so the dead ends they count must agree. *)
let test_solutions_backtracks () =
  let db = Database.create () in
  let r =
    Database.create_table db
      (Schema.make ~name:"R"
         ~columns:[ Schema.column "a" Value.Tint; Schema.column "b" Value.Tint ]
         ())
  in
  List.iter
    (fun (a, b) -> ignore (Table.insert r (Tuple.of_list [ Value.Int a; Value.Int b ])))
    [ (1, 2); (2, 3); (3, 4) ];
  let x = Term.V (Term.fresh_var "x") and y = Term.V (Term.fresh_var "y") in
  (* R(x,y) ∧ R(y,x): no symmetric pair exists, so every binding of the
     first atom dead-ends in the second. *)
  let unsat =
    Formula.and_
      [ Formula.Atom (Atom.make "R" [ x; y ]); Formula.Atom (Atom.make "R" [ y; x ]) ]
  in
  let s1 = Solver.Backtrack.fresh_stats () in
  Alcotest.(check bool) "unsat via solve" false
    (Solver.Backtrack.satisfiable ~stats:s1 db unsat);
  let s2 = Solver.Backtrack.fresh_stats () in
  Alcotest.(check (list pass)) "no solutions" []
    (Solver.Backtrack.solutions ~stats:s2 db unsat);
  Alcotest.(check bool) "solutions counts dead ends" true
    (s2.Solver.Backtrack.backtracks > 0);
  Alcotest.(check int) "same dead ends as solve on an exhaustive search"
    s1.Solver.Backtrack.backtracks s2.Solver.Backtrack.backtracks

let suite =
  [ Alcotest.test_case "200 traces: incremental ⇔ from-scratch bodies" `Slow
      test_trace_equivalence;
    Alcotest.test_case "ablation: same outcomes" `Slow
      test_ablation_outcome_identity;
    Alcotest.test_case "rejection leaves the chunk cache untouched" `Quick
      test_rejection_leaves_body;
    Alcotest.test_case "crash monkey: zero violations incrementally" `Slow
      test_crash_monkey_incremental;
    Alcotest.test_case "composed_clauses gauge exported" `Quick test_composed_clauses_gauge;
    Alcotest.test_case "intern: structure-preserving, idempotent" `Quick
      test_intern_equivalence;
    Alcotest.test_case "apply_subst: no-op shares physically" `Quick test_apply_subst_sharing;
    Alcotest.test_case "table version bumps on mutation" `Quick test_table_version;
    Alcotest.test_case "solutions counts backtracks like solve" `Quick
      test_solutions_backtracks;
  ]
