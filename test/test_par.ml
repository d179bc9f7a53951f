(* Tests for the parallel building blocks: the split refill/recheck
   cache phases, the O(1) pending bookkeeping, per-flight workload
   determinism across domain counts, and mailbox close semantics. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Database = Relational.Database
module Cache = Solver.Cache
module Backtrack = Solver.Backtrack
module Qdb = Quantum.Qdb
module Runner = Workload.Runner
module Travel = Workload.Travel
module Flights = Workload.Flights
open Logic

(* -- Cache refill: split phases, over-ask fix, dedup ------------------------- *)

(* R(a,b) with n rows (i, i); the formula R(x,y) has exactly n witnesses. *)
let xv = Term.fresh_var "x"
let yv = Term.fresh_var "y"

let r_db n =
  let db = Database.create () in
  let r =
    Database.create_table db
      (Schema.make ~name:"R"
         ~columns:[ Schema.column "a" Value.Tint; Schema.column "b" Value.Tint ]
         ())
  in
  for i = 0 to n - 1 do
    ignore (Relational.Table.insert r (Tuple.of_list [ Value.Int i; Value.Int i ]))
  done;
  db

let r_formula = Formula.atom (Atom.make "R" [ Term.V xv; Term.V yv ])

let ground_witness i =
  Subst.bind xv (Term.int i) (Subst.bind yv (Term.int i) Subst.empty)

let witness_satisfies db w formula =
  let lookup v =
    match Subst.resolve w (Term.V v) with
    | Term.C value -> Some value
    | Term.V _ -> None
  in
  try Formula.eval db lookup formula with Formula.Unbound _ -> false

let test_refill_tops_up_and_dedups () =
  let db = r_db 5 in
  let cache = Cache.create ~capacity:3 () in
  Cache.set_witness cache (ground_witness 0);
  let held = Cache.refill cache db r_formula in
  Alcotest.(check int) "topped up to capacity" 3 held;
  let ws = Cache.witnesses cache in
  Alcotest.(check int) "holds capacity witnesses" 3 (List.length ws);
  (* All distinct, and every one satisfies the formula. *)
  let keys =
    List.map (fun w -> List.sort compare (List.map (fun (v, t) -> (v.Term.vid, t)) (Subst.bindings w))) ws
  in
  Alcotest.(check int) "witnesses are distinct" 3 (List.length (List.sort_uniq compare keys));
  List.iter
    (fun w ->
      Alcotest.(check bool) "witness satisfies" true (witness_satisfies db w r_formula))
    ws

let test_refill_fewer_solutions_than_capacity () =
  (* Only 2 solutions exist; a capacity-3 cache holding one of them must
     end with exactly 2 — the known witness deduplicated against the
     enumeration, not double-counted (the over-ask bug). *)
  let db = r_db 2 in
  let cache = Cache.create ~capacity:3 () in
  Cache.set_witness cache (ground_witness 1);
  let held = Cache.refill cache db r_formula in
  Alcotest.(check int) "both solutions, no duplicates" 2 held;
  Alcotest.(check int) "witness list agrees" 2 (List.length (Cache.witnesses cache))

let test_refill_plan_none_at_capacity () =
  let db = r_db 4 in
  let cache = Cache.create ~capacity:2 () in
  ignore (Cache.refill cache db r_formula);
  Alcotest.(check bool) "at capacity: no job" true (Cache.refill_plan cache r_formula = None)

let test_refill_split_phases_match_inline () =
  let db = r_db 6 in
  let inline_cache = Cache.create ~capacity:4 () in
  Cache.set_witness inline_cache (ground_witness 2);
  let inline_held = Cache.refill inline_cache db r_formula in
  let split_cache = Cache.create ~capacity:4 () in
  Cache.set_witness split_cache (ground_witness 2);
  let split_held =
    match Cache.refill_plan split_cache r_formula with
    | None -> Alcotest.fail "expected a refill job"
    | Some job ->
      let fresh = Cache.refill_compute ~stats:(Backtrack.fresh_stats ()) db job in
      Cache.refill_install split_cache fresh
  in
  Alcotest.(check int) "same held count" inline_held split_held;
  let key w = List.map (fun (v, t) -> (v.Term.vid, t)) (Subst.bindings w) in
  Alcotest.(check bool) "same witness sets" true
    (List.for_all2
       (fun a b -> key a = key b)
       (Cache.witnesses inline_cache) (Cache.witnesses split_cache))

(* -- Recheck outcomes -------------------------------------------------------- *)

let test_recheck_keep () =
  let db = r_db 3 in
  let stats = Backtrack.fresh_stats () in
  match
    Cache.recheck_compute ~stats db
      ~witnesses:[ ground_witness 0; ground_witness 2 ]
      ~formula:r_formula
  with
  | Cache.Keep ws -> Alcotest.(check int) "both survive, order kept" 2 (List.length ws)
  | Cache.Rewitness _ | Cache.Unsat_now -> Alcotest.fail "expected Keep"

let test_recheck_rewitness () =
  let db = r_db 3 in
  let stats = Backtrack.fresh_stats () in
  match
    Cache.recheck_compute ~stats db ~witnesses:[ ground_witness 99 ] ~formula:r_formula
  with
  | Cache.Rewitness w ->
    Alcotest.(check bool) "fresh witness satisfies" true (witness_satisfies db w r_formula)
  | Cache.Keep _ -> Alcotest.fail "dead witness kept"
  | Cache.Unsat_now -> Alcotest.fail "satisfiable formula declared unsat"

let test_recheck_unsat () =
  let db = r_db 0 in
  let stats = Backtrack.fresh_stats () in
  (match
     Cache.recheck_compute ~stats db ~witnesses:[ ground_witness 0 ] ~formula:r_formula
   with
   | Cache.Unsat_now -> ()
   | Cache.Keep _ | Cache.Rewitness _ -> Alcotest.fail "expected Unsat_now");
  (* Installing Unsat_now invalidates and reports unsatisfiable. *)
  let cache = Cache.create ~capacity:2 () in
  Cache.set_witness cache (ground_witness 0);
  Alcotest.(check bool) "install reports unsat" false
    (Cache.recheck_install cache Cache.Unsat_now);
  Alcotest.(check int) "cache emptied" 0 (List.length (Cache.witnesses cache))

(* -- Engine pending bookkeeping (O(1) count / id lookup) ---------------------- *)

let test_pending_bookkeeping () =
  let geometry = { Flights.flights = 1; rows_per_flight = 4; dest = "LA" } in
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  let users = Travel.make_users ~flights:1 ~pairs_per_flight:4 in
  let ids =
    List.filter_map
      (fun u ->
        match Qdb.submit qdb (Travel.plain_txn u) with
        | Qdb.Committed id -> Some id
        | Qdb.Rejected _ | Qdb.Overloaded _ -> None)
      users
  in
  Alcotest.(check int) "count tracks submissions" (List.length ids) (Qdb.pending_count qdb);
  (* Ground half of them one by one through the id lookup. *)
  let half = List.filteri (fun i _ -> i mod 2 = 0) ids in
  List.iter (fun id -> ignore (Qdb.ground qdb id)) half;
  Alcotest.(check int) "count tracks groundings"
    (List.length ids - List.length half)
    (Qdb.pending_count qdb);
  Alcotest.(check int) "pending list agrees with count" (Qdb.pending_count qdb)
    (List.length (Qdb.pending qdb));
  ignore (Qdb.ground_all qdb);
  Alcotest.(check int) "empty after ground_all" 0 (Qdb.pending_count qdb)

(* -- Per-flight (sharded) workload determinism across domain counts ------------ *)

let shard_spec =
  {
    Runner.default_spec with
    Runner.geometry = { Flights.flights = 3; rows_per_flight = 4; dest = "LA" };
    pairs_per_flight = 6;
    order = Travel.Random_order;
    seed = 7;
  }

let collect_dbs () =
  let dbs = ref [] in
  let collect ~flight db = dbs := (flight, Database.copy db) :: !dbs in
  (dbs, collect)

(* The per-flight run on partition actors: one private engine per flight,
   so the same stream gives the same per-flight databases on one actor
   (inline) and on four spawned domains. *)
let test_sharded_determinism_across_domains () =
  let engine = Runner.Quantum_engine { Qdb.default_config with Qdb.cache_capacity = 2 } in
  let run actors =
    let dbs, collect = collect_dbs () in
    let o, _ = Runner.run_actors ~clamp:false ~collect ~actors engine shard_spec in
    (o, dbs)
  in
  let o1, dbs1 = run 1 in
  let o4, dbs4 = run 4 in
  Alcotest.(check int) "committed identical" o1.Runner.committed o4.Runner.committed;
  Alcotest.(check int) "rejected identical" o1.Runner.rejected o4.Runner.rejected;
  Alcotest.(check (float 1e-9)) "coordination identical" o1.Runner.coordination_pct
    o4.Runner.coordination_pct;
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) !l in
  List.iter2
    (fun (f1, db1) (f4, db4) ->
      Alcotest.(check int) "same flight" f1 f4;
      Alcotest.(check bool)
        (Printf.sprintf "flight %d database identical" f1)
        true (Database.equal db1 db4))
    (sort dbs1) (sort dbs4)

(* -- Mailbox close semantics across domains ----------------------------------
   The shutdown handshake the network front door leans on: senders
   blocked on a full mailbox must wake and learn the close (no enqueue,
   no hang), and the consumer must drain everything accepted before
   seeing [None] — acks admitted before a close are never dropped. *)

let test_mailbox_blocked_senders_wake_on_close () =
  let mb = Par.Mailbox.create ~capacity:1 () in
  Alcotest.(check bool) "first send fits" true (Par.Mailbox.send mb 0);
  let results = Array.make 3 None in
  let senders =
    Array.init 3 (fun i ->
        Domain.spawn (fun () -> results.(i) <- Some (Par.Mailbox.send mb (i + 1))))
  in
  (* Let the senders reach the full-mailbox wait before closing. *)
  let rec settle tries =
    if tries > 0 && Par.Mailbox.length mb >= Par.Mailbox.capacity mb then begin
      Thread.yield ();
      settle (tries - 1)
    end
  in
  settle 1000;
  Par.Mailbox.close mb;
  Array.iter Domain.join senders;
  Array.iteri
    (fun i r ->
      Alcotest.(check (option bool))
        (Printf.sprintf "blocked sender %d returned false" i)
        (Some false) r)
    results;
  (* The message accepted before the close still drains, then None. *)
  Alcotest.(check (option int)) "accepted message drains" (Some 0) (Par.Mailbox.recv mb);
  Alcotest.(check (option int)) "then closed" None (Par.Mailbox.recv mb)

let test_mailbox_drains_before_none () =
  let mb = Par.Mailbox.create ~capacity:8 () in
  for i = 0 to 4 do
    Alcotest.(check bool) "send accepted" true (Par.Mailbox.send mb i)
  done;
  Par.Mailbox.close mb;
  Alcotest.(check bool) "send after close refused" false (Par.Mailbox.send mb 99);
  let consumer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Par.Mailbox.recv mb with
          | Some v -> drain (v :: acc)
          | None -> List.rev acc
        in
        drain [])
  in
  Alcotest.(check (list int)) "FIFO drain then None" [ 0; 1; 2; 3; 4 ] (Domain.join consumer)

let test_mailbox_blocked_receiver_wakes_on_close () =
  let mb : int Par.Mailbox.t = Par.Mailbox.create ~capacity:4 () in
  let consumer = Domain.spawn (fun () -> Par.Mailbox.recv mb) in
  Thread.yield ();
  Par.Mailbox.close mb;
  Alcotest.(check (option int)) "empty+closed receiver wakes to None" None
    (Domain.join consumer)

let test_mailbox_recv_batch () =
  let mb = Par.Mailbox.create ~capacity:16 () in
  for i = 0 to 9 do
    ignore (Par.Mailbox.send mb i)
  done;
  Alcotest.(check (list int)) "batch capped at max, oldest first" [ 0; 1; 2; 3 ]
    (Par.Mailbox.recv_batch ~max:4 mb);
  Alcotest.(check (list int)) "rest in one batch" [ 4; 5; 6; 7; 8; 9 ]
    (Par.Mailbox.recv_batch mb);
  (* Batch recv unblocks senders that were waiting on a full mailbox. *)
  let mb2 = Par.Mailbox.create ~capacity:2 () in
  ignore (Par.Mailbox.send mb2 0);
  ignore (Par.Mailbox.send mb2 1);
  let sender = Domain.spawn (fun () -> Par.Mailbox.send mb2 2) in
  Thread.yield ();
  Alcotest.(check (list int)) "drain frees capacity" [ 0; 1 ] (Par.Mailbox.recv_batch mb2);
  Alcotest.(check bool) "blocked sender completed" true (Domain.join sender);
  Alcotest.(check (list int)) "late send arrives" [ 2 ] (Par.Mailbox.recv_batch mb2);
  Par.Mailbox.close mb2;
  Alcotest.(check (list int)) "closed and drained: empty batch" []
    (Par.Mailbox.recv_batch mb2);
  Alcotest.(check bool) "rejects max <= 0" true
    (match Par.Mailbox.recv_batch ~max:0 mb2 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let suite =
  [ Alcotest.test_case "refill: tops up, dedups, satisfies" `Quick
      test_refill_tops_up_and_dedups;
    Alcotest.test_case "refill: scarce solutions not double-counted" `Quick
      test_refill_fewer_solutions_than_capacity;
    Alcotest.test_case "refill: no job at capacity" `Quick test_refill_plan_none_at_capacity;
    Alcotest.test_case "refill: split phases = inline refill" `Quick
      test_refill_split_phases_match_inline;
    Alcotest.test_case "recheck: surviving witnesses kept" `Quick test_recheck_keep;
    Alcotest.test_case "recheck: dead witnesses re-solved" `Quick test_recheck_rewitness;
    Alcotest.test_case "recheck: unsat refused and invalidated" `Quick test_recheck_unsat;
    Alcotest.test_case "engine: O(1) pending count and id lookup" `Quick
      test_pending_bookkeeping;
    Alcotest.test_case "sharded run identical at 1 vs 4 domains" `Quick
      test_sharded_determinism_across_domains;
    Alcotest.test_case "mailbox: blocked senders wake on close" `Quick
      test_mailbox_blocked_senders_wake_on_close;
    Alcotest.test_case "mailbox: drains before None" `Quick test_mailbox_drains_before_none;
    Alcotest.test_case "mailbox: blocked receiver wakes on close" `Quick
      test_mailbox_blocked_receiver_wakes_on_close;
    Alcotest.test_case "mailbox: recv_batch order, cap, close" `Quick test_mailbox_recv_batch;
  ]
