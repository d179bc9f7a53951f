(* Tests for the shared-nothing actor runtime and everything routed
   through it: deterministic key routing, bounded-mailbox backpressure,
   the two-phase cross-group protocol over the engine's
   prepare/commit/abort API, crash recovery with actor-routed engine
   calls, and the 1-vs-N outcome-identity pin against the sharded
   runner. *)

module Runtime = Actor.Runtime
module Qdb = Quantum.Qdb
module Metrics = Quantum.Metrics
module Rtxn = Quantum.Rtxn
module Runner = Workload.Runner
module Travel = Workload.Travel
module Flights = Workload.Flights

let with_runtime ?mailbox_capacity ?(clamp = false) ~actors ~make f =
  let rt = Runtime.create ?mailbox_capacity ~clamp ~actors ~make () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) (fun () -> f rt)

(* -- Routing ----------------------------------------------------------------- *)

let test_routing_deterministic () =
  with_runtime ~actors:3 ~make:(fun _ -> ()) @@ fun rt ->
  Alcotest.(check int) "live = requested when unclamped" 3 (Runtime.live rt);
  List.iter
    (fun key ->
      let o = Runtime.owner rt ~key in
      Alcotest.(check bool)
        (Printf.sprintf "owner of %d in range" key)
        true
        (o >= 0 && o < Runtime.live rt);
      Alcotest.(check int)
        (Printf.sprintf "owner of %d stable" key)
        o (Runtime.owner rt ~key))
    [ 0; 1; 2; 3; 17; 1000; -1; -17; min_int + 1 ];
  (* Same key, same group instance: [make] runs exactly once per key. *)
  let made = Mutex.create () in
  let made_keys = ref [] in
  with_runtime ~actors:2
    ~make:(fun key ->
      Mutex.lock made;
      made_keys := key :: !made_keys;
      Mutex.unlock made;
      ref 0)
  @@ fun rt ->
  List.iter (fun _ -> Runtime.post rt ~key:7 (fun r -> incr r)) (List.init 20 Fun.id);
  Runtime.drain rt;
  Alcotest.(check (list int)) "one group built" [ 7 ] !made_keys;
  match Runtime.group rt ~key:7 with
  | Some r -> Alcotest.(check int) "all 20 posts hit the one group" 20 !r
  | None -> Alcotest.fail "group 7 missing after posts"

let test_clamp_on_this_host () =
  let hw = Domain.recommended_domain_count () in
  let rt = Runtime.create ~clamp:true ~actors:(hw + 8) ~make:(fun _ -> ()) () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      Alcotest.(check int) "requested preserved" (hw + 8) (Runtime.requested rt);
      Alcotest.(check bool) "live clamped to hardware" true (Runtime.live rt <= hw))

(* -- Backpressure ------------------------------------------------------------ *)

let test_mailbox_bounds () =
  let q = Par.Mailbox.create ~capacity:2 () in
  Alcotest.(check bool) "send 1" true (Par.Mailbox.try_send q 1);
  Alcotest.(check bool) "send 2" true (Par.Mailbox.try_send q 2);
  Alcotest.(check bool) "full" false (Par.Mailbox.try_send q 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Par.Mailbox.try_recv q);
  Alcotest.(check bool) "space again" true (Par.Mailbox.try_send q 4);
  Par.Mailbox.close q;
  Alcotest.(check bool) "closed rejects" false (Par.Mailbox.try_send q 5);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Par.Mailbox.try_recv q);
  Alcotest.(check (option int)) "drains after close" (Some 4) (Par.Mailbox.try_recv q);
  Alcotest.(check (option int)) "empty and closed" None (Par.Mailbox.recv q)

let test_blocking_send_fifo () =
  (* A producer domain pushes 200 items through a 4-slot mailbox: the
     blocking [send] is the backpressure, and FIFO order must survive
     the producer stalling on a full queue. *)
  let q = Par.Mailbox.create ~capacity:4 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to 199 do
          assert (Par.Mailbox.send q i)
        done;
        Par.Mailbox.close q)
  in
  let rec collect acc =
    match Par.Mailbox.recv q with
    | Some v -> collect (v :: acc)
    | None -> List.rev acc
  in
  let got = collect [] in
  Domain.join producer;
  Alcotest.(check (list int)) "all items in order" (List.init 200 Fun.id) got

let test_runtime_backpressure () =
  (* Tiny mailboxes, many more posts than capacity: the driver must
     block rather than drop, so after [drain] every increment landed. *)
  with_runtime ~mailbox_capacity:2 ~actors:2 ~make:(fun _ -> ref 0) @@ fun rt ->
  let per_key = 150 in
  List.iter
    (fun key ->
      for _ = 1 to per_key do
        Runtime.post rt ~key (fun r -> incr r)
      done)
    [ 0; 1; 2; 3 ];
  Runtime.drain rt;
  List.iter
    (fun key ->
      match Runtime.group rt ~key with
      | Some r -> Alcotest.(check int) (Printf.sprintf "key %d complete" key) per_key !r
      | None -> Alcotest.fail "group missing")
    [ 0; 1; 2; 3 ];
  let messages = Array.fold_left (fun n s -> n + s.Runtime.messages) 0 (Runtime.stats rt) in
  Alcotest.(check int) "every post processed exactly once" (4 * per_key) messages

(* -- Group-commit batch boundary --------------------------------------------- *)

(* Group state for the hook tests: how much work landed vs how much the
   last batch-end boundary covered — the WAL-sync shape without a WAL. *)
type synced = { mutable work : int; mutable synced : int }

let test_batch_end_covers_all_work () =
  let rt =
    Runtime.create ~clamp:false
      ~on_batch_end:(fun g -> g.synced <- g.work)
      ~actors:2
      ~make:(fun _ -> { work = 0; synced = 0 })
      ()
  in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  List.iter
    (fun key ->
      for _ = 1 to 100 do
        Runtime.post rt ~key (fun g -> g.work <- g.work + 1)
      done)
    [ 0; 1; 2; 3 ];
  (* The drain barrier is a batch boundary: nothing the driver can now
     read may be ahead of its last sync. *)
  Runtime.drain rt;
  List.iter
    (fun key ->
      match Runtime.group rt ~key with
      | Some g ->
        Alcotest.(check int) (Printf.sprintf "key %d: all work landed" key) 100 g.work;
        Alcotest.(check int)
          (Printf.sprintf "key %d: boundary covered every message" key)
          g.work g.synced
      | None -> Alcotest.fail "group missing")
    [ 0; 1; 2; 3 ]

let test_batch_end_inline_per_task () =
  (* A single live actor runs inline: every task is its own batch, so
     the hook holds after each post without any drain. *)
  let boundaries = ref 0 in
  let rt =
    Runtime.create ~clamp:false
      ~on_batch_end:(fun g ->
        incr boundaries;
        g.synced <- g.work)
      ~actors:1
      ~make:(fun _ -> { work = 0; synced = 0 })
      ()
  in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  for i = 1 to 5 do
    Runtime.post rt ~key:9 (fun g -> g.work <- g.work + 1);
    match Runtime.group rt ~key:9 with
    | Some g ->
      Alcotest.(check int) (Printf.sprintf "post %d synced inline" i) i g.synced
    | None -> Alcotest.fail "group missing"
  done;
  Alcotest.(check int) "one boundary per inline task" 5 !boundaries

let test_batch_end_failure_surfaces () =
  (* A failing sync is a failing batch: the exception parks like a
     posted task's and re-raises at the next drain. *)
  let armed = ref true in
  let rt =
    Runtime.create ~clamp:false
      ~on_batch_end:(fun _ ->
        if !armed then begin
          armed := false;
          failwith "sync exploded"
        end)
      ~actors:2
      ~make:(fun _ -> ref 0)
      ()
  in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  Runtime.post rt ~key:0 (fun r -> incr r);
  match Runtime.drain rt with
  | () -> Alcotest.fail "batch-end failure swallowed"
  | exception Failure msg -> Alcotest.(check string) "the hook's failure" "sync exploded" msg

(* -- Two-phase cross-group coordination over the engine ---------------------- *)

(* One engine group per key: a 1-flight fixture with [rows] seat rows
   (3 seats each) and its own user roster. *)
type eng = {
  qdb : Qdb.t;
  users : Travel.user list;
}

let make_eng ~rows _key =
  let geometry = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" } in
  let store = Flights.fresh_store geometry in
  { qdb = Qdb.create store; users = Travel.make_users ~flights:1 ~pairs_per_flight:6 }

let user g n = List.nth g.users n

let counts g =
  let m = Qdb.metrics g.qdb in
  (m.Metrics.submitted, m.Metrics.committed, m.Metrics.rejected, m.Metrics.overloaded)

(* Four engine counters as a labelled list (alcotest has no quad). *)
let check_counts msg (a, b, c, d) (a', b', c', d') =
  Alcotest.(check (list int)) msg [ a; b; c; d ] [ a'; b'; c'; d' ]

let test_coordinate_commit () =
  with_runtime ~actors:2 ~make:(make_eng ~rows:2) @@ fun rt ->
  (* Keys 0 and 1 land on different actors: the full vote/freeze path. *)
  Alcotest.(check bool) "two owners" true
    (Runtime.owner rt ~key:0 <> Runtime.owner rt ~key:1);
  let result =
    Runtime.coordinate rt ~keys:[ 0; 1 ]
      ~prepare:(fun k g ->
        match Qdb.prepare g.qdb (Travel.plain_txn (user g k)) with
        | Ok p -> Ok p
        | Error r -> Error (k, r))
      ~commit:(fun _ g p -> ignore (Qdb.commit_prepared g.qdb p : Qdb.commit_result))
      ~abort:(fun _ g p -> Qdb.abort_prepared g.qdb p)
  in
  Alcotest.(check bool) "both voted yes" true (Result.is_ok result);
  Runtime.drain rt;
  List.iter
    (fun key ->
      match Runtime.group rt ~key with
      | Some g ->
        check_counts (Printf.sprintf "group %d committed its leg" key) (1, 1, 0, 0)
          (counts g)
      | None -> Alcotest.fail "engine group missing")
    [ 0; 1 ]

let test_coordinate_abort () =
  with_runtime ~actors:2 ~make:(make_eng ~rows:1) @@ fun rt ->
  (* Fill group 1 to capacity (3 seats on 1 row) so its prepare rejects. *)
  Runtime.call rt ~key:1 (fun g ->
      List.iteri
        (fun n _ ->
          if n < 3 then
            match Qdb.submit g.qdb (Travel.plain_txn (user g n)) with
            | Qdb.Committed _ -> ()
            | _ -> Alcotest.fail "capacity fill should commit")
        g.users);
  let result =
    Runtime.coordinate rt ~keys:[ 0; 1 ]
      ~prepare:(fun k g ->
        let n = if k = 1 then 3 else 0 in
        match Qdb.prepare g.qdb (Travel.plain_txn (user g n)) with
        | Ok p -> Ok p
        | Error r -> Error (k, r))
      ~commit:(fun _ g p -> ignore (Qdb.commit_prepared g.qdb p : Qdb.commit_result))
      ~abort:(fun _ g p -> Qdb.abort_prepared g.qdb p)
  in
  (match result with
   | Error (1, Qdb.Rejected _) -> ()
   | Error (k, _) -> Alcotest.fail (Printf.sprintf "abort blamed group %d, wanted 1" k)
   | Ok () -> Alcotest.fail "full flight must abort the coordination");
  Runtime.drain rt;
  (* Group 0's prepare was aborted: no submission recorded, and the
     group still serves admissions normally. *)
  (match Runtime.group rt ~key:0 with
   | Some g ->
     check_counts "abort left group 0 untouched" (0, 0, 0, 0) (counts g)
   | None -> Alcotest.fail "engine group missing");
  let after =
    Runtime.call rt ~key:0 (fun g -> Qdb.submit g.qdb (Travel.plain_txn (user g 0)))
  in
  (match after with
   | Qdb.Committed _ -> ()
   | _ -> Alcotest.fail "group 0 must still admit after an aborted coordination");
  (* Group 1: 3 fill commits + 1 refused prepare, all accounted. *)
  match Runtime.group rt ~key:1 with
  | Some g ->
    check_counts "group 1 accounting closed" (4, 3, 1, 0) (counts g)
  | None -> Alcotest.fail "engine group missing"

let test_coordinate_single_owner_fast_path () =
  (* Keys 0 and 2 share actor 0 of 2: the protocol must collapse to a
     local run, and still commit both legs. *)
  with_runtime ~actors:2 ~make:(make_eng ~rows:2) @@ fun rt ->
  Alcotest.(check int) "keys share an owner"
    (Runtime.owner rt ~key:0) (Runtime.owner rt ~key:2);
  let result =
    Runtime.coordinate rt ~keys:[ 0; 2 ]
      ~prepare:(fun k g ->
        match Qdb.prepare g.qdb (Travel.plain_txn (user g (k mod 2))) with
        | Ok p -> Ok p
        | Error r -> Error r)
      ~commit:(fun _ g p -> ignore (Qdb.commit_prepared g.qdb p : Qdb.commit_result))
      ~abort:(fun _ g p -> Qdb.abort_prepared g.qdb p)
  in
  Alcotest.(check bool) "local collapse commits" true (Result.is_ok result);
  Runtime.drain rt;
  List.iter
    (fun key ->
      match Runtime.group rt ~key with
      | Some g ->
        check_counts (Printf.sprintf "group %d committed" key) (1, 1, 0, 0) (counts g)
      | None -> Alcotest.fail "engine group missing")
    [ 0; 2 ]

(* -- Crash monkey with actor-routed engine calls ----------------------------- *)

(* Actor mode also refills the cache after every commit, so crashes land
   between refills; every call is a synchronous round-trip, so the
   summary replays identically from the seed. *)
let test_crash_monkey_actor_mode () =
  let s = Workload.Crash_monkey.run ~cycles:15 ~seed:4242 ~actors:2 () in
  Alcotest.(check int) "cycles ran" 15 s.Workload.Crash_monkey.cycles;
  Alcotest.(check bool) "crashes propagated across the domain boundary" true
    (s.Workload.Crash_monkey.crashes > 0);
  (match s.Workload.Crash_monkey.violations with
   | [] -> ()
   | (cycle, what) :: _ ->
     Alcotest.fail (Printf.sprintf "recovery violation in cycle %d: %s" cycle what));
  Alcotest.(check bool) "identical summary on replay" true
    (s = Workload.Crash_monkey.run ~cycles:15 ~seed:4242 ~actors:2 ())

(* -- Outcome identity: 1 actor, N actors, one inline engine ------------------ *)

let test_outcome_identity () =
  let spec =
    {
      Runner.default_spec with
      Runner.geometry = { Flights.flights = 4; rows_per_flight = 4; dest = "LA" };
      pairs_per_flight = 6;
      order = Travel.Random_order;
      seed = 77;
    }
  in
  let engine = Runner.Quantum_engine Qdb.default_config in
  let fingerprint (o : Runner.outcome) =
    (o.Runner.committed, o.Runner.rejected, o.Runner.coordinated, o.Runner.max_possible)
  in
  let reference = fingerprint (Runner.run engine spec) in
  List.iter
    (fun actors ->
      let o, report = Runner.run_actors ~clamp:false ~actors engine spec in
      Alcotest.(check int)
        (Printf.sprintf "%d actors live (unclamped)" actors)
        actors report.Runner.actors_live;
      check_counts
        (Printf.sprintf "outcomes identical at %d actor(s)" actors)
        reference (fingerprint o))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "routing: deterministic, one group per key" `Quick
      test_routing_deterministic;
    Alcotest.test_case "routing: hardware clamp" `Quick test_clamp_on_this_host;
    Alcotest.test_case "mailbox: bounds, fifo, close" `Quick test_mailbox_bounds;
    Alcotest.test_case "mailbox: blocking send keeps fifo" `Quick test_blocking_send_fifo;
    Alcotest.test_case "runtime: backpressure loses nothing" `Quick
      test_runtime_backpressure;
    Alcotest.test_case "group commit: drain boundary covers all work" `Quick
      test_batch_end_covers_all_work;
    Alcotest.test_case "group commit: inline mode syncs per task" `Quick
      test_batch_end_inline_per_task;
    Alcotest.test_case "group commit: hook failure re-raises at drain" `Quick
      test_batch_end_failure_surfaces;
    Alcotest.test_case "2pc: cross-actor commit" `Quick test_coordinate_commit;
    Alcotest.test_case "2pc: cross-actor abort rolls back" `Quick test_coordinate_abort;
    Alcotest.test_case "2pc: single-owner fast path" `Quick
      test_coordinate_single_owner_fast_path;
    Alcotest.test_case "crash monkey: actor-routed engine" `Quick
      test_crash_monkey_actor_mode;
    Alcotest.test_case "outcome identity: 1 vs 4 actors vs Runner.run" `Quick
      test_outcome_identity;
  ]
