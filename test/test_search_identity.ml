(* Search-tree identity: the grounding search's effort counters and
   valuations, pinned call by call.

   Every line below is one solver call: its (nodes, candidates,
   backtracks, propagations) and the valuation it returned, written over
   the formula's variables in creation order so the text does not depend
   on global variable ids.  The bodies are travel-shaped composed bodies
   (OR generators, chain equalities through partner optionals, pairwise
   seat disequalities, Key_free insert checks) solved unseeded and
   seeded, with and without optional masks, plus [solutions] with a
   limit, and random small formulas that also carry Not_atom, Lt and Le
   checks.  The last lines are Bookings digests of inline travel flights
   run through the engine.

   The expected lines were recorded once from the whole-list propagation
   kernel; any change to the search that alters what is decided shows up
   here as a changed line.  They are never regenerated to make a failing
   run pass. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Table = Relational.Table
module Database = Relational.Database
module Backtrack = Solver.Backtrack
module Soft = Solver.Soft
module Compose = Quantum.Compose
module Rtxn = Quantum.Rtxn
module Qdb = Quantum.Qdb
module Travel = Workload.Travel
module Flights = Workload.Flights
module Prng = Workload.Prng
open Logic

(* -- Rendering ------------------------------------------------------------- *)

let stats_text (s : Backtrack.stats) =
  Printf.sprintf "n=%d c=%d b=%d p=%d" s.Backtrack.nodes s.Backtrack.candidates
    s.Backtrack.backtracks s.Backtrack.propagations

(* Values of [vars] (sorted by creation) under [subst]; a variable left
   open is written as the index of the variable it resolves to. *)
let valuation_text vars subst =
  let index v =
    let rec go i = function
      | [] -> "?"
      | w :: rest -> if Term.equal_var v w then string_of_int i else go (i + 1) rest
    in
    go 0 vars
  in
  vars
  |> List.map (fun v ->
    match Subst.resolve subst (Term.V v) with
    | Term.C c -> Value.to_string c
    | Term.V w -> "_" ^ index w)
  |> String.concat ","

let sorted_vars f = Term.Var_set.elements (Formula.vars f)

let solve_line name ?node_limit ?seed db f =
  let stats = Backtrack.fresh_stats () in
  let result =
    match Backtrack.solve ?node_limit ?seed ~stats db f with
    | Some s -> valuation_text (sorted_vars f) s
    | None -> "unsat"
    | exception Backtrack.Too_many_nodes -> "too_many_nodes"
  in
  Printf.sprintf "%s solve %s %s" name (stats_text stats) result

let solutions_line name ?node_limit ?seed ~limit db f =
  let stats = Backtrack.fresh_stats () in
  let result =
    match Backtrack.solutions ?node_limit ?seed ~stats ~limit db f with
    | sols -> List.map (valuation_text (sorted_vars f)) sols |> String.concat " | "
    | exception Backtrack.Too_many_nodes -> "too_many_nodes"
  in
  Printf.sprintf "%s solutions %s [%s]" name (stats_text stats) result

let soft_line name ?node_limit ?seed db ~hard ~soft =
  let stats = Backtrack.fresh_stats () in
  let vars = sorted_vars (Formula.and_ (hard :: soft)) in
  let result =
    match Soft.solve ?node_limit ?seed ~stats db ~hard ~soft with
    | Some o ->
      let flags =
        Array.to_list o.Soft.satisfied
        |> List.map (fun b -> if b then "1" else "0")
        |> String.concat ""
      in
      Printf.sprintf "%s opt=%s" (valuation_text vars o.Soft.valuation) flags
    | None -> "unsat"
    | exception Backtrack.Too_many_nodes -> "too_many_nodes"
  in
  Printf.sprintf "%s soft %s %s" name (stats_text stats) result

(* -- Travel-shaped composed bodies ---------------------------------------- *)

(* One flight of [rows] rows with the first [booked] seats already sold. *)
let travel_db ~rows ~booked =
  let geometry = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" } in
  let db = Relational.Store.db (Flights.fresh_store geometry) in
  let available = Database.table db "Available" and bookings = Database.table db "Bookings" in
  for seat = 0 to booked - 1 do
    ignore (Table.delete available (Tuple.of_list [ Value.Int 0; Value.Int seat ]));
    ignore
      (Table.insert bookings
         (Tuple.of_list [ Value.Str (Printf.sprintf "x%d" seat); Value.Int 0; Value.Int seat ]))
  done;
  db

(* [n] entangled bookings in a shuffled arrival order, pairs kept whole
   so later arrivals carry partner optionals over earlier inserts. *)
let travel_sequence ~seed ~pairs ~n =
  let users = Travel.make_users ~flights:1 ~pairs_per_flight:pairs in
  let users = Prng.shuffle_list (Prng.create seed) users in
  List.filteri (fun i _ -> i < n) users
  |> List.mapi (fun i u -> { (Rtxn.freshen (Travel.entangled_txn u)) with Rtxn.id = i })

(* Soft units of the grounded transactions, as the engine builds them. *)
let soft_units sequence grounded =
  List.concat_map
    (fun txn ->
      let others = List.filter (fun t -> t.Rtxn.id <> txn.Rtxn.id) sequence in
      Compose.soft_clauses_for others txn)
    grounded

let mask_formula hard soft mask =
  Formula.and_ (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) soft @ [ hard ])

let travel_case ~tag ~rows ~booked ~seed ~pairs ~n =
  let db = travel_db ~rows ~booked in
  let sequence = travel_sequence ~seed ~pairs ~n in
  let hard =
    Compose.body_of_sequence ~check_inserts:true ~key_of:(Compose.resolver_of_db db) sequence
  in
  let node_limit = 4000 in
  let name what = Printf.sprintf "travel/%s/%s" tag what in
  (* The last two arrivals ground; everyone else is pinned by the seed. *)
  let grounded = List.filteri (fun i _ -> i >= n - 2) sequence in
  let soft = soft_units sequence grounded in
  let seed_subst =
    match Backtrack.solve ~node_limit db hard with
    | Some w ->
      let keep =
        List.fold_left
          (fun acc txn ->
            if List.memq txn grounded then acc else Term.Var_set.union acc (Rtxn.all_vars txn))
          Term.Var_set.empty sequence
      in
      Some (Subst.restrict keep w)
    | None | (exception Backtrack.Too_many_nodes) -> None
  in
  let masks = List.init (1 lsl min 3 (List.length soft)) Fun.id in
  List.concat
    [ [ solve_line (name "hard") ~node_limit db hard;
        soft_line (name "soft") ~node_limit db ~hard ~soft;
      ];
      (match seed_subst with
       | None -> []
       | Some seed ->
         [ solve_line (name "hard-seeded") ~node_limit ~seed db hard;
           soft_line (name "soft-seeded") ~node_limit ~seed db ~hard ~soft;
         ]);
      List.map
        (fun mask ->
          solve_line (name (Printf.sprintf "mask%d" mask)) ~node_limit db
            (mask_formula hard soft mask))
        masks;
      [ solutions_line (name "solutions") ~node_limit ~limit:4 db hard ];
    ]

let travel_lines () =
  List.concat
    [ travel_case ~tag:"r8n4" ~rows:8 ~booked:0 ~seed:11 ~pairs:6 ~n:4;
      travel_case ~tag:"r8n9" ~rows:8 ~booked:0 ~seed:12 ~pairs:6 ~n:9;
      travel_case ~tag:"r8n14" ~rows:8 ~booked:6 ~seed:13 ~pairs:8 ~n:14;
      travel_case ~tag:"r6n12" ~rows:6 ~booked:3 ~seed:14 ~pairs:8 ~n:12;
      travel_case ~tag:"tight" ~rows:4 ~booked:5 ~seed:15 ~pairs:5 ~n:8;
      travel_case ~tag:"over" ~rows:3 ~booked:2 ~seed:16 ~pairs:4 ~n:8;
    ]

(* -- Random small formulas ------------------------------------------------ *)

(* R(a,b) keyed on a, S(b,c) keyed on both columns. *)
let small_db () =
  let db = Database.create () in
  let r =
    Database.create_table db
      (Schema.make ~name:"R"
         ~columns:[ Schema.column "a" Value.Tint; Schema.column "b" Value.Tint ]
         ~key:[ "a" ] ())
  in
  let s =
    Database.create_table db
      (Schema.make ~name:"S"
         ~columns:[ Schema.column "b" Value.Tint; Schema.column "c" Value.Tint ]
         ())
  in
  List.iter
    (fun (a, b) -> ignore (Table.insert r (Tuple.of_list [ Value.Int a; Value.Int b ])))
    [ (0, 1); (1, 2); (2, 0); (3, 3); (4, 1) ];
  List.iter
    (fun (b, c) -> ignore (Table.insert s (Tuple.of_list [ Value.Int b; Value.Int c ])))
    [ (0, 0); (1, 2); (1, 3); (2, 1); (3, 0); (3, 4); (4, 4) ];
  db

let random_formula rng vars =
  let var () = Term.V vars.(Prng.int rng (Array.length vars)) in
  let term () = if Prng.int rng 10 < 7 then var () else Term.int (Prng.int rng 5) in
  let atom () = Atom.make (if Prng.bool rng then "R" else "S") [ term (); term () ] in
  let check () =
    match Prng.int rng 6 with
    | 0 -> Formula.neq (var ()) (term ())
    | 1 -> Formula.lt (var ()) (term ())
    | 2 -> Formula.le (term ()) (var ())
    | 3 -> Formula.not_atom (atom ())
    | 4 -> Formula.key_free (Atom.make "R" [ term (); term () ])
    | _ -> Formula.neq (var ()) (var ())
  in
  let clause () =
    match Prng.int rng 10 with
    | 0 | 1 | 2 -> Formula.atom (atom ())
    | 3 | 4 | 5 -> check ()
    | 6 ->
      (* Chain equality between two variables. *)
      Formula.eq (var ()) (var ())
    | 7 ->
      (* Generator OR: ground on a table, or alias another variable. *)
      Formula.or_
        [ Formula.and_ [ Formula.atom (atom ()); check () ];
          Formula.and_ [ Formula.eq (var ()) (var ()); Formula.atom (atom ()) ];
        ]
    | 8 ->
      (* Constraint OR: a negated unification predicate. *)
      Formula.or_ [ Formula.neq (var ()) (term ()); Formula.neq (var ()) (var ()) ]
    | _ -> Formula.or_ [ Formula.atom (atom ()); Formula.atom (atom ()); check () ]
  in
  Formula.and_ (List.init (3 + Prng.int rng 7) (fun _ -> clause ()))

let random_lines () =
  let db = small_db () in
  let rng = Prng.create 2024 in
  let vars = Array.init 5 (fun i -> Term.fresh_var (Printf.sprintf "x%d" i)) in
  List.concat
    (List.init 80 (fun i ->
         let f = random_formula rng vars in
         let name = Printf.sprintf "random/%02d" i in
         let seed = Subst.bind vars.(Prng.int rng 5) (Term.int (Prng.int rng 5)) Subst.empty in
         [ solve_line name db f;
           solve_line (name ^ "/seeded") ~seed db f;
           solutions_line name ~limit:3 db f;
         ]))

(* -- Inline travel flights through the engine ----------------------------- *)

(* One flight of the travel workload run inline: shuffled entangled
   arrivals, a collapse read of a waiting booker after about one booking
   in nine, check-in of everything still pending, then five standby
   bookings the full flight must refuse. *)
let flight_digest index =
  let rows = 34 and pairs = 51 in
  let rng = Prng.create (Hashtbl.hash (101, 0, index)) in
  let geometry = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" } in
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  let users = Prng.shuffle_list rng (Travel.make_users ~flights:1 ~pairs_per_flight:pairs) in
  let booked = Hashtbl.create 128 and waiting = ref [] in
  let committed = ref 0 and rejected = ref 0 in
  let submit txn =
    match Qdb.submit qdb txn with
    | Qdb.Committed _ -> incr committed
    | Qdb.Rejected _ -> incr rejected
    | Qdb.Overloaded msg -> failwith ("overloaded: " ^ msg)
  in
  List.iter
    (fun (u : Travel.user) ->
      Hashtbl.replace booked u.Travel.name ();
      waiting := List.filter (fun (w : Travel.user) -> w.Travel.name <> u.Travel.partner) !waiting;
      if not (Hashtbl.mem booked u.Travel.partner) then waiting := u :: !waiting;
      submit (Travel.entangled_txn u);
      if !waiting <> [] && Prng.float rng < 0.1 /. 0.9 then begin
        let r = Prng.pick rng !waiting in
        waiting := List.filter (fun w -> w != r) !waiting;
        ignore (Qdb.read qdb (Travel.seat_query r))
      end)
    users;
  List.iter (fun txn -> ignore (Qdb.ground qdb txn.Rtxn.id)) (Qdb.pending qdb);
  for i = 1 to 5 do
    submit (Travel.plain_txn { Travel.name = Printf.sprintf "standby%d" i; partner = ""; flight = 0 })
  done;
  let rows =
    Table.to_list (Database.table (Relational.Store.db store) "Bookings")
    |> List.map Tuple.to_string
    |> List.sort compare
  in
  Printf.sprintf "engine/flight%d committed=%d rejected=%d pending=%d bookings=%s" index !committed
    !rejected (Qdb.pending_count qdb)
    (Digest.to_hex (Digest.string (String.concat "\n" rows)))

let engine_lines () = List.init 4 flight_digest

let lines () = travel_lines () @ random_lines () @ engine_lines ()

(* -- Optional-repair floor -------------------------------------------------- *)

(* [Soft.solve ~better_than:c] must return exactly the unfloored outcome
   when that satisfies more than [c] optionals and [None] otherwise, while
   searching no more nodes — on the exact sweep and the greedy descent. *)
let test_better_than () =
  let db = small_db () in
  let rng = Prng.create 77 in
  let vars = Array.init 5 (fun i -> Term.fresh_var (Printf.sprintf "y%d" i)) in
  let render vars = function
    | None -> "none"
    | Some o ->
      valuation_text vars o.Soft.valuation
      ^ " "
      ^ String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") o.Soft.satisfied))
  in
  for case = 0 to 59 do
    let hard = random_formula rng vars in
    let n_soft = if case mod 4 = 0 then Soft.exact_threshold + 1 else 1 + Prng.int rng 3 in
    let soft =
      List.init n_soft (fun _ ->
        if Prng.bool rng then Formula.atom (Atom.make "S" [ Term.V vars.(Prng.int rng 5); Term.int (Prng.int rng 5) ])
        else Formula.eq (Term.V vars.(Prng.int rng 5)) (Term.int (Prng.int rng 5)))
    in
    let vs = sorted_vars (Formula.and_ (hard :: soft)) in
    let run ?better_than () =
      let stats = Backtrack.fresh_stats () in
      let r = Soft.solve ?better_than ~stats db ~hard ~soft in
      (r, stats.Backtrack.nodes)
    in
    let full, full_nodes = run () in
    for c = 0 to n_soft do
      let floored, nodes = run ~better_than:c () in
      let expected =
        match full with
        | Some o when Soft.satisfied_count o > c -> full
        | _ -> None
      in
      let name = Printf.sprintf "case %d floor %d" case c in
      Alcotest.(check string) name (render vs expected) (render vs floored);
      Alcotest.(check bool) (name ^ ": no more nodes") true (nodes <= full_nodes)
    done
  done

(* -- Suite ------------------------------------------------------------------ *)

let check_against prefix actual () =
  let expected =
    List.filter (fun l -> String.starts_with ~prefix l) Search_identity_expected.lines
  in
  Alcotest.(check int) (prefix ^ " call count") (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) prefix e a) expected actual

let suite =
  [ Alcotest.test_case "travel bodies: counters and valuations" `Quick
      (fun () -> check_against "travel/" (travel_lines ()) ());
    Alcotest.test_case "random formulas: counters and valuations" `Quick
      (fun () -> check_against "random/" (random_lines ()) ());
    Alcotest.test_case "inline travel flights: Bookings digests" `Quick
      (fun () -> check_against "engine/" (engine_lines ()) ());
    Alcotest.test_case "optional repair floor: same outcome, no more nodes" `Quick
      test_better_than;
  ]
