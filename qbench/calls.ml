(* The benchmark's calls into the engine's public API, each timed into
   [Engine_stats] and spanned in traced runs. *)

module Qdb = Quantum.Qdb

type verdict =
  | Committed
  | Rejected
  | Overloaded

(* Admission as [Qdb.submit] runs it, split into its two public halves:
   [prepare] (the satisfiability check) and [commit_prepared] (the
   durable extension).  WAL time inside the commit is the WAL layer's,
   so it is subtracted from [commit_ns]. *)
let admit (es : Engine_stats.t) (wal : Timed_wal.t) qdb txn =
  let nodes0 = (Qdb.metrics qdb).Quantum.Metrics.solver_stats.Solver.Backtrack.nodes in
  let t0 = Obs.Mclock.now_ns () in
  let prepared = Span.with_ "core.check" (fun () -> Qdb.prepare qdb txn) in
  es.check_ns <- Int64.add es.check_ns (Obs.Mclock.elapsed_ns t0);
  match prepared with
  | Ok pr ->
    let wal0 = Timed_wal.wal_ns wal in
    let t1 = Obs.Mclock.now_ns () in
    (match Span.with_ "core.commit" (fun () -> Qdb.commit_prepared qdb pr) with
     | Qdb.Committed _ -> ()
     | Qdb.Rejected _ | Qdb.Overloaded _ -> failwith "commit_prepared refused a prepared admission");
    let wal_ns = Int64.sub (Timed_wal.wal_ns wal) wal0 in
    es.commit_ns <- Int64.add es.commit_ns (Int64.sub (Obs.Mclock.elapsed_ns t1) wal_ns);
    Committed
  | Error (Qdb.Rejected _) ->
    es.rejects <- es.rejects + 1;
    es.reject_nodes <-
      es.reject_nodes
      + (Qdb.metrics qdb).Quantum.Metrics.solver_stats.Solver.Backtrack.nodes - nodes0;
    Rejected
  | Error (Qdb.Overloaded _) -> Overloaded
  | Error (Qdb.Committed _) -> failwith "prepare refused with a commit"

let read (es : Engine_stats.t) qdb query =
  let t0 = Obs.Mclock.now_ns () in
  let rows = Span.with_ "core.read" (fun () -> Qdb.read qdb query) in
  es.read_ns <- Int64.add es.read_ns (Obs.Mclock.elapsed_ns t0);
  rows

let ground (es : Engine_stats.t) f =
  let t0 = Obs.Mclock.now_ns () in
  let g = Span.with_ "core.ground" f in
  es.ground_ns <- Int64.add es.ground_ns (Obs.Mclock.elapsed_ns t0);
  g

(* Check-in: every pending admission grounded one at a time, oldest
   first ([Qdb.ground]); each call's duration goes to [samples]. *)
let check_in es qdb samples =
  List.iter
    (fun txn ->
      let t0 = Obs.Mclock.now_ns () in
      ignore (ground es (fun () -> Qdb.ground qdb txn.Quantum.Rtxn.id));
      Samples.add samples (Obs.Mclock.elapsed_s t0))
    (Qdb.pending qdb)

(* Seats held in a Bookings table: no seat twice, every committed
   booker seated.  Returns the misses as messages. *)
let check_seats ~what ~rows ~committed =
  let seats = Hashtbl.create 256 and holders = Hashtbl.create 256 in
  let misses = ref [] in
  List.iter
    (fun (name, flight, seat) ->
      if Hashtbl.mem seats (flight, seat) then
        misses := Printf.sprintf "%s: seat %d/%d booked twice" what flight seat :: !misses;
      Hashtbl.replace seats (flight, seat) ();
      Hashtbl.replace holders name ())
    rows;
  List.iter
    (fun name ->
      if not (Hashtbl.mem holders name) then
        misses := Printf.sprintf "%s: committed booker %s holds no seat" what name :: !misses)
    committed;
  List.rev !misses

let bookings db =
  Relational.Table.fold
    (fun row acc ->
      match Relational.Tuple.to_list row with
      | [ Relational.Value.Str name; Relational.Value.Int f; Relational.Value.Int s ] ->
        (name, f, s) :: acc
      | _ -> acc)
    (Relational.Database.table db "Bookings")
    []
