(* Engine-wide chaos harness: deterministic fault injection beyond the
   WAL (the crash monkey's territory) — solver-budget exhaustion through
   squeezed governors, job exceptions mid-refill and mid-recheck (cache
   refills, blind-write rechecks), and the survival contract that goes
   with them:

   - the engine absorbs every injected fault: no poisoned partition, no
     half-applied write, the composed-satisfiability invariant intact and
     the next submission served normally;
   - outcomes are bit-identical inline and routed through 1, 2 and 4
     actors — fault schedules are pure hashes of engine-side
     coordinates, never of which domain ran a job;
   - a squeezed admission that says [Rejected] means it: resubmitting
     with the default governor must reject again (a commit would mean an
     exhaustion was misreported as a semantic no);
   - [Overloaded] leaves the pending set untouched, and resubmitting
     without the squeeze makes progress (commits or genuinely rejects).

   Every cycle is reproducible from its seed; the schedule PRNG is
   consumed only on the orchestrator thread. *)

module Database = Relational.Database
module Value = Relational.Value
module Tuple = Relational.Tuple
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Governor = Quantum.Governor
module Metrics = Quantum.Metrics

type cycle_outcome = {
  events : string list; (* compact event trace — the determinism fingerprint *)
  submissions : int;
  committed : int;
  rejected : int;
  overloaded : int;
  squeezed : int;
  refill_faults : int;
  write_aborts : int;
  groundings : int;
  violations : string list;
}

type summary = {
  cycles : int;
  submissions : int;
  committed : int;
  rejected : int;
  overloaded : int;
  squeezed : int;
  refill_faults : int;
  write_aborts : int;
  groundings : int;
  determinism_checks : int;
  violations : (int * string) list; (* (cycle, what broke) *)
}

(* In actor mode ([actors]) every engine call round-trips through an
   actor (clamp off, so with 2 or more actors each one is a real spawned
   domain), call i on actor i mod n: consecutive operations of the one
   engine land on different domains.  The schedule PRNG stays on the
   orchestrator, and the event trace must be identical to the inline
   run — which is how the harness proves fault schedules never depend
   on where a job ran. *)
let run_cycle ?actors ~seed () =
  let rng = Prng.create seed in
  let geometry =
    { Flights.flights = 1; rows_per_flight = 2 + Prng.int rng 2; dest = "LA" }
  in
  let store = Flights.fresh_store geometry in
  (* capacity > 1 so commits trigger the cache refills the injector
     targets; everything else is the default engine. *)
  let config = { Qdb.default_config with Qdb.cache_capacity = 3 } in
  let qdb = Qdb.create ~config store in
  let plan =
    { Fault.chaos_seed = seed lxor 0xC4A05; refill_rate = 0.25; recheck_rate = 0.4 }
  in
  Qdb.set_fault_injector qdb (Fault.injector plan);
  (* The squeeze: a node budget far below what contended admissions need,
     with a flat escalation so retries cannot save it.  No deadline — the
     wall clock would break replay determinism. *)
  let squeeze_gov =
    Governor.make ~node_budget:(1 + Prng.int rng 40) ~max_retries:1 ~escalation:1 ()
  in
  let rt =
    match actors with
    | Some n when n >= 1 ->
      Some (Actor.Runtime.create ~clamp:false ~actors:n ~make:(fun _ -> ()) ())
    | _ -> None
  in
  let calls = ref 0 in
  let exec f =
    match rt with
    | Some rt ->
      calls := (!calls + 1) mod Actor.Runtime.live rt;
      Actor.Runtime.call rt ~key:!calls (fun () -> f ())
    | None -> f ()
  in
  let events = ref [] in
  let record e = events := e :: !events in
  let violations = ref [] in
  let violate v = violations := v :: !violations in
  let squeezed = ref 0 in
  let write_aborts = ref 0 in
  let groundings = ref 0 in
  (* Over capacity: 4 users per row against 3 seats — the tail of every
     cycle is contended, which is where budgets blow and rejections live. *)
  let users =
    Travel.make_users ~flights:1 ~pairs_per_flight:(2 * geometry.Flights.rows_per_flight)
  in
  let users = Prng.shuffle_list rng users in
  let seats = Flights.seats_per_flight geometry in
  Fun.protect
    ~finally:(fun () -> Option.iter Actor.Runtime.shutdown rt)
    (fun () ->
      List.iter
        (fun u ->
          (match Prng.int rng 10 with
           | 0 ->
             (* Blind write under possible recheck injection: delete one
                PRNG-chosen Available seat.  Accepted, refused or aborted —
                all three must replay identically. *)
             let seat = Prng.int rng seats in
             let op =
               Database.Delete ("Available", Tuple.of_list [ Value.Int 0; Value.Int seat ])
             in
             (match exec (fun () -> Qdb.write qdb [ op ]) with
              | Ok () -> record "W+"
              | Error e when String.length e >= 18 && String.sub e 0 18 = "write revalidation" ->
                incr write_aborts;
                record "W!"
              | Error _ -> record "W-")
           | 1 ->
             (match exec (fun () -> Qdb.pending qdb) with
              | [] -> ()
              | pending ->
                let txn = List.nth pending (Prng.int rng (List.length pending)) in
                let n = List.length (exec (fun () -> Qdb.ground qdb txn.Rtxn.id)) in
                groundings := !groundings + n;
                record (Printf.sprintf "G%d" n))
           | _ -> ());
          let txn = if Prng.bool rng then Travel.entangled_txn u else Travel.plain_txn u in
          if Prng.int rng 4 = 0 then begin
            incr squeezed;
            let before = exec (fun () -> Qdb.pending_count qdb) in
            match exec (fun () -> Qdb.submit ~governor:squeeze_gov qdb txn) with
            | Qdb.Committed _ -> record "sC"
            | Qdb.Rejected _ ->
              record "sR";
              (* Oracle: a rejection under pressure must be a real rejection.
                 Resubmitting with the full default budget committing would
                 mean an exhaustion escaped as a semantic no. *)
              (match exec (fun () -> Qdb.submit qdb txn) with
               | Qdb.Committed _ ->
                 violate "squeezed Rejected committed on unsqueezed resubmit"
               | Qdb.Rejected _ -> record "rr"
               | Qdb.Overloaded _ -> violate "default governor reported Overloaded")
            | Qdb.Overloaded _ ->
              record "sO";
              if exec (fun () -> Qdb.pending_count qdb) <> before then
                violate "Overloaded mutated the pending set";
              (* Resubmitting without the squeeze must make progress. *)
              (match exec (fun () -> Qdb.submit qdb txn) with
               | Qdb.Committed _ -> record "oC"
               | Qdb.Rejected _ -> record "oR"
               | Qdb.Overloaded _ -> violate "default governor reported Overloaded")
          end
          else
            match exec (fun () -> Qdb.submit qdb txn) with
            | Qdb.Committed _ -> record "C"
            | Qdb.Rejected _ -> record "R"
            | Qdb.Overloaded _ -> violate "default governor reported Overloaded")
        users;
      (* Post-cycle survival contract. *)
      (try
         let n = List.length (exec (fun () -> Qdb.ground_all qdb)) in
         groundings := !groundings + n;
         record (Printf.sprintf "GA%d" n)
       with Qdb.Engine_overloaded _ -> violate "ground_all overloaded under default budget");
      if not (exec (fun () -> Qdb.invariant_holds qdb)) then
        violate "composed-satisfiability invariant broken after chaos cycle");
  let m = Qdb.metrics qdb in
  let submitted = m.Metrics.submitted in
  if m.Metrics.committed + m.Metrics.rejected + m.Metrics.overloaded <> submitted then
    violate
      (Printf.sprintf "outcome accounting: %d committed + %d rejected + %d overloaded <> %d submitted"
         m.Metrics.committed m.Metrics.rejected m.Metrics.overloaded submitted);
  {
    events = List.rev !events;
    submissions = submitted;
    committed = m.Metrics.committed;
    rejected = m.Metrics.rejected;
    overloaded = m.Metrics.overloaded;
    squeezed = !squeezed;
    refill_faults = m.Metrics.refill_failures;
    write_aborts = !write_aborts;
    groundings = !groundings;
    violations = List.rev !violations;
  }

(* Actor counts each cycle is replayed at: 1 runs on the runtime's
   inline path, 2 and 4 on real spawned domains. *)
let replay_actors = [ 1; 2; 4 ]

let run ?(cycles = 100) ?(seed = 1234) () =
  let acc =
    ref
      {
        cycles = 0;
        submissions = 0;
        committed = 0;
        rejected = 0;
        overloaded = 0;
        squeezed = 0;
        refill_faults = 0;
        write_aborts = 0;
        groundings = 0;
        determinism_checks = 0;
        violations = [];
      }
  in
  for cycle = 0 to cycles - 1 do
    let cycle_seed = seed + (cycle * 6151) in
    (* The inline run is the reference; each actor replay must match it. *)
    let reference = run_cycle ~seed:cycle_seed () in
    let replays =
      List.map (fun actors -> (actors, run_cycle ~actors ~seed:cycle_seed ())) replay_actors
    in
    let cycle_violations =
      reference.violations
      @ List.concat_map (fun (_, (o : cycle_outcome)) -> o.violations) replays
      @ List.filter_map
          (fun (actors, (o : cycle_outcome)) ->
            if o.events = reference.events then None
            else Some (Printf.sprintf "events diverge between inline and %d-actor runs" actors))
          replays
    in
    let s = !acc in
    acc :=
      {
        cycles = s.cycles + 1;
        submissions = s.submissions + reference.submissions;
        committed = s.committed + reference.committed;
        rejected = s.rejected + reference.rejected;
        overloaded = s.overloaded + reference.overloaded;
        squeezed = s.squeezed + reference.squeezed;
        refill_faults = s.refill_faults + reference.refill_faults;
        write_aborts = s.write_aborts + reference.write_aborts;
        groundings = s.groundings + reference.groundings;
        determinism_checks = s.determinism_checks + List.length replays;
        violations = s.violations @ List.map (fun v -> (cycle, v)) cycle_violations;
      }
  done;
  !acc

let pp fmt s =
  Format.fprintf fmt
    "@[<v>%d cycle(s) x {inline, 1, 2, 4 actors}: %d submission(s) — %d committed, %d \
     rejected, %d overloaded@,\
     %d squeezed admission(s); %d refill fault(s) absorbed, %d write abort(s)@,\
     %d grounding(s); %d determinism check(s); %d violation(s)@]"
    s.cycles s.submissions s.committed s.rejected s.overloaded s.squeezed s.refill_faults
    s.write_aborts s.groundings s.determinism_checks (List.length s.violations)
