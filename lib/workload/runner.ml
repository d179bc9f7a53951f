(* Workload runner: drives a generated operation stream against either the
   quantum engine or the Intelligent Social baseline, collecting the
   measurements the paper's figures report — cumulative per-operation
   time, read/update time split, coordination percentage, and the maximum
   number of pending transactions observed. *)

module Store = Relational.Store
module Qdb = Quantum.Qdb

type engine =
  | Quantum_engine of Qdb.config
  | Intelligent_social

type spec = {
  geometry : Flights.geometry;
  order : Travel.order;
  seed : int;
  read_fraction : float; (* fraction of the op stream that is reads *)
  pairs_per_flight : int;
}

let default_spec =
  {
    geometry = { Flights.flights = 1; rows_per_flight = 34; dest = "LA" };
    order = Travel.Random_order;
    seed = 42;
    read_fraction = 0.;
    pairs_per_flight = 51; (* 102 users for 102 seats, as in Figures 5/6 *)
  }

type op =
  | Book of Travel.user
  | Read_seat of Travel.user

(* Engine metrics accumulated across every quantum run this process has
   executed — each run builds a fresh [Qdb.t] and would otherwise discard
   its counters and latency histograms with it.  The bench harness
   snapshots this sink into results/metrics.json after the experiments. *)
let metrics_sink = Quantum.Metrics.create ()
let reset_metrics_sink () = Quantum.Metrics.reset metrics_sink

type outcome = {
  cumulative_ms : float array; (* wall-clock after each operation *)
  total_time_s : float;
  committed : int;
  rejected : int;
  coordinated : int;
  max_possible : int;
  coordination_pct : float;
  max_pending : int;
  time_reads_s : float;
  time_updates_s : float;
  ops : int;
}

(* Build the operation stream: the ordered bookings with reads injected at
   random positions; each read targets a user who already booked. *)
let build_ops spec rng =
  let users = Travel.make_users ~flights:spec.geometry.Flights.flights
      ~pairs_per_flight:spec.pairs_per_flight
  in
  let ordered = Travel.order_users spec.order rng users in
  let n_books = List.length ordered in
  let n_reads =
    if spec.read_fraction <= 0. then 0
    else begin
      (* reads are a fraction of the total op count: total = books + reads,
         reads/total = f  =>  reads = books * f / (1 - f) *)
      let f = Float.min spec.read_fraction 0.95 in
      int_of_float (Float.round (float_of_int n_books *. f /. (1. -. f)))
    end
  in
  let ops = ref [] in
  let issued = ref [] in
  let pending_reads = ref n_reads in
  let remaining_books = ref n_books in
  List.iter
    (fun user ->
      ops := Book user :: !ops;
      issued := user :: !issued;
      decr remaining_books;
      (* Interleave reads proportionally to the remaining stream. *)
      let reads_now =
        if !remaining_books = 0 then !pending_reads
        else begin
          let per_book =
            float_of_int !pending_reads /. float_of_int (!remaining_books + 1)
          in
          let base = int_of_float per_book in
          base + (if Prng.float rng < per_book -. float_of_int base then 1 else 0)
        end
      in
      for _ = 1 to min reads_now !pending_reads do
        ops := Read_seat (Prng.pick rng !issued) :: !ops;
        decr pending_reads
      done)
    ordered;
  (List.rev !ops, ordered)

(* -- Actor execution (shared-nothing partition owners) ----------------------

   Flights are independent by construction — [Travel.entangled_txn] binds
   the flight as a constant and optional atoms carry no dependence — so
   the engine's independent-set partitioning never groups transactions
   across flights, and each flight's admission stream can run on its own
   engine, concurrently.  One long-lived actor domain owns each flight
   group end-to-end — store, engine, admission, grounding, WAL — and the
   driver only routes operations to owners, op by op, through bounded
   mailboxes.  Nothing waits on a centralized queue; backpressure is a
   full mailbox blocking the driver.

   Outcome identity: the global stream and PRNG consumption are shared
   with [run] via [build_ops], and per-owner mailbox FIFO preserves each
   flight's sub-order, so every group sees exactly the operations [run]
   applies to that flight's partitions.  Admission outcomes and
   coordination therefore match [run]'s one engine — and are identical
   across actor counts, since a group's stream does not depend on which
   actor owns it.

   Not carried over from [run]: [cumulative_ms] (empty — per-op wall
   clock interleaves across actors) and [max_pending] becomes the max
   over groups rather than a global count. *)

type group = {
  g_flight : int;
  g_store : Store.t;
  g_qdb : Qdb.t option;
  mutable g_committed : int;
  mutable g_rejected : int;
  mutable g_max_pending : int;
  mutable g_time_reads : float;
  mutable g_time_updates : float;
}

type actor_report = {
  actors_requested : int;
  actors_live : int;  (** after the hardware clamp *)
  busy_s : float;  (** summed actor task time, the denominator of phase attribution *)
  messages : int;
}

let run_actors ?mailbox_capacity ?clamp ?collect ~actors engine spec =
  let rng = Prng.create spec.seed in
  let ops, users = build_ops spec rng in
  (* Flight ids in first-appearance order, for the final ground_all round
     and the (sorted) merge. *)
  let seen = Hashtbl.create 16 in
  let flight_ids = ref [] in
  List.iter
    (fun op ->
      let u = match op with Book u | Read_seat u -> u in
      if not (Hashtbl.mem seen u.Travel.flight) then begin
        Hashtbl.add seen u.Travel.flight ();
        flight_ids := u.Travel.flight :: !flight_ids
      end)
    ops;
  let flights = List.sort Int.compare !flight_ids in
  (* Group state is born on the owning actor's domain: the store and
     engine never exist anywhere else. *)
  let make flight =
    let store = Flights.fresh_store spec.geometry in
    (* Group commit at the actor's mailbox-drain boundary (the
       [on_batch_end] hook below) owns durability from here on: the
       per-admission [Every_batch] sync the ROADMAP flagged is retired,
       one sync covers however many admissions drained together. *)
    Store.set_sync store Relational.Wal.Never;
    {
      g_flight = flight;
      g_store = store;
      g_qdb =
        (match engine with
         | Quantum_engine config -> Some (Qdb.create ~config store)
         | Intelligent_social -> None);
      g_committed = 0;
      g_rejected = 0;
      g_max_pending = 0;
      g_time_reads = 0.;
      g_time_updates = 0.;
    }
  in
  let rt =
    Actor.Runtime.create ?mailbox_capacity ?clamp
      ~on_batch_end:(fun g -> Store.sync g.g_store)
      ~actors ~make ()
  in
  Fun.protect ~finally:(fun () -> Actor.Runtime.shutdown rt)
  @@ fun () ->
  let start = Obs.Mclock.now_ns () in
  let apply g op =
    let op_start = Obs.Mclock.now_ns () in
    (match op, g.g_qdb with
     | Book user, Some qdb ->
       (match Qdb.submit qdb (Travel.entangled_txn user) with
        | Qdb.Committed _ -> g.g_committed <- g.g_committed + 1
        | Qdb.Rejected _ | Qdb.Overloaded _ -> g.g_rejected <- g.g_rejected + 1);
       g.g_max_pending <- max g.g_max_pending (Qdb.pending_count qdb)
     | Book user, None ->
       if Travel.is_book g.g_store user then g.g_committed <- g.g_committed + 1
       else g.g_rejected <- g.g_rejected + 1
     | Read_seat user, Some qdb -> ignore (Qdb.read qdb (Travel.seat_query user))
     | Read_seat user, None ->
       ignore (Solver.Query.all (Store.db g.g_store) (Travel.seat_query user)));
    let dt = Obs.Mclock.elapsed_s op_start in
    match op with
    | Book _ -> g.g_time_updates <- g.g_time_updates +. dt
    | Read_seat _ -> g.g_time_reads <- g.g_time_reads +. dt
  in
  (* Route the global stream op by op; per-owner FIFO keeps each flight's
     sub-order.  Under tracing, actor-side spans parent to this one. *)
  (Obs.Trace.span ~cat:"shard"
     ~args:(fun () -> [ ("ops", Obs.Trace.Int (List.length ops)) ])
     "actor.route"
   @@ fun () ->
   List.iter
     (fun op ->
       let u = match op with Book u | Read_seat u -> u in
       Actor.Runtime.post rt ~key:u.Travel.flight (fun g -> apply g op))
     ops;
   (* Deferred assignments ground at the end, on their owners. *)
   List.iter
     (fun f ->
       Actor.Runtime.post rt ~key:f (fun g ->
           match g.g_qdb with
           | Some qdb -> ignore (Qdb.ground_all qdb)
           | None -> ()))
     flights;
   Actor.Runtime.drain rt);
  let total_time_s = Obs.Mclock.elapsed_s start in
  (* Merge on the driver, in flight order — safe after [drain] (every
     actor is parked, and the barrier round-trip ordered our reads). *)
  let committed = ref 0 and rejected = ref 0 in
  let max_pending = ref 0 in
  let time_reads = ref 0. and time_updates = ref 0. in
  let coordinated = ref 0 and max_possible = ref 0 in
  (Obs.Flight.time Obs.Flight.Merge @@ fun () ->
   Obs.Trace.span ~cat:"shard"
     ~args:(fun () -> [ ("groups", Obs.Trace.Int (List.length flights)) ])
     "actor.merge"
   @@ fun () ->
   List.iter
     (fun flight ->
       match Actor.Runtime.group rt ~key:flight with
       | None -> ()
       | Some g ->
         (match g.g_qdb with
          | Some qdb -> Quantum.Metrics.merge ~into:metrics_sink (Qdb.metrics qdb)
          | None -> ());
         committed := !committed + g.g_committed;
         rejected := !rejected + g.g_rejected;
         max_pending := max !max_pending g.g_max_pending;
         time_reads := !time_reads +. g.g_time_reads;
         time_updates := !time_updates +. g.g_time_updates;
         let db = Store.db g.g_store in
         let shard_users = List.filter (fun u -> u.Travel.flight = flight) users in
         coordinated := !coordinated + Travel.coordinated_users db shard_users;
         max_possible := !max_possible + Travel.max_coordination spec.geometry shard_users;
         (match collect with
          | Some f -> f ~flight:g.g_flight db
          | None -> ()))
     flights);
  let stats = Actor.Runtime.stats rt in
  let report =
    {
      actors_requested = Actor.Runtime.requested rt;
      actors_live = Actor.Runtime.live rt;
      busy_s =
        Array.fold_left
          (fun acc (s : Actor.Runtime.stats) -> acc +. (float_of_int s.Actor.Runtime.busy_ns *. 1e-9))
          0. stats;
      messages =
        Array.fold_left (fun acc (s : Actor.Runtime.stats) -> acc + s.Actor.Runtime.messages) 0 stats;
    }
  in
  ( {
      cumulative_ms = [||];
      total_time_s;
      committed = !committed;
      rejected = !rejected;
      coordinated = !coordinated;
      max_possible = !max_possible;
      coordination_pct =
        (if !max_possible = 0 then 0.
         else 100. *. float_of_int !coordinated /. float_of_int !max_possible);
      max_pending = !max_pending;
      time_reads_s = !time_reads;
      time_updates_s = !time_updates;
      ops = List.length ops;
    },
    report )

let run engine spec =
  let rng = Prng.create spec.seed in
  let store = Flights.fresh_store spec.geometry in
  let ops, users = build_ops spec rng in
  let n = List.length ops in
  let cumulative_ms = Array.make n 0. in
  let committed = ref 0 and rejected = ref 0 in
  let max_pending = ref 0 in
  let time_reads = ref 0. and time_updates = ref 0. in
  let qdb =
    match engine with
    | Quantum_engine config -> Some (Qdb.create ~config store)
    | Intelligent_social -> None
  in
  let start = Obs.Mclock.now_ns () in
  List.iteri
    (fun i op ->
      let op_start = Obs.Mclock.now_ns () in
      (match op, qdb with
       | Book user, Some qdb ->
         (match Qdb.submit qdb (Travel.entangled_txn user) with
          | Qdb.Committed _ -> incr committed
          | Qdb.Rejected _ | Qdb.Overloaded _ -> incr rejected);
         max_pending := max !max_pending (Qdb.pending_count qdb)
       | Book user, None -> if Travel.is_book store user then incr committed else incr rejected
       | Read_seat user, Some qdb -> ignore (Qdb.read qdb (Travel.seat_query user))
       | Read_seat user, None ->
         ignore (Solver.Query.all (Store.db store) (Travel.seat_query user)));
      let dt = Obs.Mclock.elapsed_s op_start in
      (match op with
       | Book _ -> time_updates := !time_updates +. dt
       | Read_seat _ -> time_reads := !time_reads +. dt);
      cumulative_ms.(i) <- Obs.Mclock.elapsed_s start *. 1000.)
    ops;
  (* Deferred assignments that never collapsed are fixed at the end (the
     travellers eventually check in). *)
  (match qdb with
   | Some qdb -> ignore (Qdb.ground_all qdb)
   | None -> ());
  let total_time_s = Obs.Mclock.elapsed_s start in
  (match qdb with
   | Some qdb -> Quantum.Metrics.merge ~into:metrics_sink (Qdb.metrics qdb)
   | None -> ());
  let db = Store.db store in
  let coordinated = Travel.coordinated_users db users in
  let max_possible = Travel.max_coordination spec.geometry users in
  {
    cumulative_ms;
    total_time_s;
    committed = !committed;
    rejected = !rejected;
    coordinated;
    max_possible;
    coordination_pct =
      (if max_possible = 0 then 0. else 100. *. float_of_int coordinated /. float_of_int max_possible);
    max_pending = !max_pending;
    time_reads_s = !time_reads;
    time_updates_s = !time_updates;
    ops = n;
  }
