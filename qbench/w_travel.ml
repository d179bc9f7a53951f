(* travel: the paper's Figure 5/6 flight (Section 5), many at a time.

   Each flight has 34 rows (102 seats) and 51 entangled couples
   ([Travel.entangled_txn]) arriving in random order.  About one booking
   in nine is followed by a collapse read of a seat ([Travel.seat_query])
   by a booker whose partner has not arrived yet, so every read grounds a
   pending admission; reads are 10% of the operations.  When a flight's
   stream is done its passengers check in: every pending admission is
   grounded one at a time ([Qdb.ground]), each a check-in sample.  Then
   [standby] late passengers try plain bookings, which the full flight
   must refuse.

   Flights run through one [Actor.Runtime] with one live actor; a single
   driver thread posts every operation.  Each flight's store
   sits on its own file WAL, with sync off and one fsync per actor batch
   (the runtime's [on_batch_end] group-commit hook, as
   [Workload.Runner.run_actors] wires it).  Latencies are task service
   times: the backlog in the mailboxes is the driver's.

   A run is a sequence of rounds of [flights_per_actor] flights per live
   actor; flight [j] of round [r] under seed [s] always gets the same
   inputs.  Set-up is building one flight's store (populated through its
   WAL) and engine on its actor; a round's engines are dropped once it is
   verified. *)

module Qdb = Quantum.Qdb
module Store = Relational.Store
module Wal = Relational.Wal
module Travel = Workload.Travel
module Flights = Workload.Flights
module Prng = Workload.Prng
module Rt = Actor.Runtime

let rows = 34
let pairs = 51
let read_fraction = 0.1
let standby = 5
let flights_per_actor = 8
let geometry = { Flights.flights = 1; rows_per_flight = rows; dest = "LA" }

(* Room for a whole round in every mailbox: the driver posts a round and
   then waits, instead of competing with the actors for a core. *)
let mailbox_capacity = 4096

type op =
  | Book of Travel.user
  | Read of Travel.user

(* One flight's stream.  A booker waits for their partner; the partner's
   arrival grounds both.  A read picks a booker still waiting. *)
let flight_ops rng =
  let users = Prng.shuffle_list rng (Travel.make_users ~flights:1 ~pairs_per_flight:pairs) in
  let booked = Hashtbl.create 128 in
  let waiting = ref [] in
  List.concat_map
    (fun (u : Travel.user) ->
      Hashtbl.replace booked u.Travel.name ();
      waiting := List.filter (fun (w : Travel.user) -> w.Travel.name <> u.Travel.partner) !waiting;
      if not (Hashtbl.mem booked u.Travel.partner) then waiting := u :: !waiting;
      if !waiting <> [] && Prng.float rng < read_fraction /. (1. -. read_fraction) then begin
        let r = Prng.pick rng !waiting in
        waiting := List.filter (fun w -> w != r) !waiting;
        [ Book u; Read r ]
      end
      else [ Book u ])
    users

(* What a flight leaves behind once its store and engine are dropped. *)
type tally = {
  setup_s : float;  (** building this flight's store and engine *)
  wal : Timed_wal.t;
  es : Engine_stats.t;
  accept : Samples.t;
  reject : Samples.t;
  read : Samples.t;
  checkin : Samples.t;
  mutable committed : string list;
  mutable n_accept : int;
  mutable n_reject : int;
  mutable n_overload : int;
  mutable ops : int;
  mutable queue_wait_ns : int64;
}

type engine = {
  store : Store.t;
  qdb : Qdb.t;
}

type group = {
  key : int;
  mutable engine : engine option;
  m : tally;
}

type round = {
  w0 : int64;  (** measured phase, monotonic ns *)
  w1 : int64;
  tallies : tally list;
  busy_s : float array;  (** per live actor, measured phase *)
  counts : int * int * int;  (** committed, rejected, overloaded *)
  failures : string list;
  gc_before : Gc.stat;
  gc_after : Gc.stat;
}

let wall_s r = Obs.Mclock.ns_to_s (Int64.sub r.w1 r.w0)

let wal_path ~dir key = Filename.concat dir (Printf.sprintf "travel-%d.wal" key)

let make_group ~dir key =
  let t0 = Obs.Mclock.now_ns () in
  let path = wal_path ~dir key in
  if Sys.file_exists path then Sys.remove path;
  let wal = Timed_wal.wrap (Wal.file_backend path) in
  let store = Flights.fresh_store ~backend:wal.Timed_wal.backend geometry in
  Store.set_sync store Wal.Never;
  let qdb = Qdb.create store in
  (* Population is set-up; the WAL counters cover the measured phase. *)
  Timed_wal.reset wal;
  {
    key;
    engine = Some { store; qdb };
    m =
      {
        setup_s = Obs.Mclock.elapsed_s t0;
        wal;
        es = Engine_stats.create ();
        accept = Samples.create ();
        reject = Samples.create ();
        read = Samples.create ();
        checkin = Samples.create ();
        committed = [];
        n_accept = 0;
        n_reject = 0;
        n_overload = 0;
        ops = 0;
        queue_wait_ns = 0L;
      };
  }

let engine g = Option.get g.engine

let book g (u : Travel.user) txn ~start =
  let t = g.m in
  (match Calls.admit t.es t.wal (engine g).qdb txn with
   | Calls.Committed ->
     Samples.add t.accept (Obs.Mclock.elapsed_s start);
     t.committed <- u.Travel.name :: t.committed;
     t.n_accept <- t.n_accept + 1
   | Calls.Rejected ->
     Samples.add t.reject (Obs.Mclock.elapsed_s start);
     t.n_reject <- t.n_reject + 1
   | Calls.Overloaded -> t.n_overload <- t.n_overload + 1);
  t.ops <- t.ops + 1

(* A task, with its queue wait from when it was posted. *)
let serve g ~posted ?rid f =
  let start = Obs.Mclock.now_ns () in
  g.m.queue_wait_ns <- Int64.add g.m.queue_wait_ns (Int64.sub start posted);
  Span.with_ ?rid "actor.task" (fun () -> f start)

let task ~rid ~posted op g =
  serve g ~posted ~rid @@ fun start ->
  match op with
  | Book u -> book g u (Travel.entangled_txn u) ~start
  | Read u ->
    ignore (Calls.read g.m.es (engine g).qdb (Travel.seat_query u));
    Samples.add g.m.read (Obs.Mclock.elapsed_s start);
    g.m.ops <- g.m.ops + 1

(* Check-in, then the standby passengers the full flight turns away. *)
let checkin ~posted g =
  serve g ~posted @@ fun _ ->
  Calls.check_in g.m.es (engine g).qdb g.m.checkin;
  g.m.ops <- g.m.ops + 1;
  for i = 1 to standby do
    let u = { Travel.name = Printf.sprintf "standby%d" i; partner = ""; flight = 0 } in
    book g u (Travel.plain_txn u) ~start:(Obs.Mclock.now_ns ())
  done

let verify g =
  let { store; qdb } = engine g and t = g.m in
  let m = Qdb.metrics qdb in
  let fail fmt = Printf.ksprintf (fun s -> [ Printf.sprintf "travel flight %d: %s" g.key s ]) fmt in
  let open Quantum.Metrics in
  List.concat
    [
      (if m.submitted <> m.committed + m.rejected + m.overloaded then
         fail "submitted %d <> committed %d + rejected %d + overloaded %d" m.submitted m.committed
           m.rejected m.overloaded
       else []);
      (if (m.committed, m.rejected, m.overloaded) <> (t.n_accept, t.n_reject, t.n_overload) then
         fail "engine counts differ from the replies seen"
       else []);
      (if (t.n_accept, t.n_reject, t.n_overload) <> (2 * pairs, standby, 0) then
         fail "outcomes %d/%d/%d, expected %d/%d/0" t.n_accept t.n_reject t.n_overload (2 * pairs)
           standby
       else []);
      (if Qdb.pending_count qdb <> 0 then fail "%d still pending after check-in" (Qdb.pending_count qdb)
       else []);
      (if not (Qdb.invariant_holds qdb) then fail "engine invariant broken" else []);
      Calls.check_seats ~what:(Printf.sprintf "travel flight %d" g.key)
        ~rows:(Calls.bookings (Store.db store)) ~committed:t.committed;
    ]

(* One pass: a runtime, and rounds [0 .. n-1] of inputs (or as many as
   fit in [seconds] when [n] is not given). *)
let pass ~dir ~seed ?n ?(seconds = infinity) () =
  let next_key = ref 0 in
  let rt =
    Rt.create ~mailbox_capacity
      ~on_batch_end:(fun g ->
        Option.iter (fun e -> Span.with_ "actor.batch_end" (fun () -> Store.sync e.store)) g.engine)
      ~actors:1 ~make:(make_group ~dir) ()
  in
  Fun.protect ~finally:(fun () -> Rt.shutdown rt) @@ fun () ->
  let live_flights = flights_per_actor * Rt.live rt in
  let round index =
    let keys = List.init live_flights (fun j -> !next_key + j) in
    next_key := !next_key + live_flights;
    let streams =
      List.mapi (fun j key -> (key, flight_ops (Prng.create (Hashtbl.hash (seed, index, j))))) keys
    in
    (* Set-up: every flight's store and engine born on its actor. *)
    List.iter (fun key -> Rt.post rt ~key ignore) keys;
    Rt.drain rt;
    let busy0 = Array.map (fun s -> s.Rt.busy_ns) (Rt.stats rt) in
    let gc_before = Gc.quick_stat () in
    let w0 = Obs.Mclock.now_ns () in
    (* Round-robin across the round's flights, as arrivals interleave. *)
    let rid = ref 0 in
    let rec post_all streams =
      let rest =
        List.filter_map
          (fun (key, ops) ->
            match ops with
            | [] -> None
            | op :: more ->
              incr rid;
              Rt.post rt ~key (task ~rid:!rid ~posted:(Obs.Mclock.now_ns ()) op);
              Some (key, more))
          streams
      in
      if rest <> [] then post_all rest
    in
    post_all streams;
    List.iter (fun key -> Rt.post rt ~key (checkin ~posted:(Obs.Mclock.now_ns ()))) keys;
    Rt.drain rt;
    let w1 = Obs.Mclock.now_ns () in
    let gc_after = Gc.quick_stat () in
    let busy_s =
      Array.mapi (fun i s -> Obs.Mclock.ns_to_s (Int64.of_int (s.Rt.busy_ns - busy0.(i)))) (Rt.stats rt)
    in
    let groups = List.map (fun key -> Option.get (Rt.group rt ~key)) keys in
    (* Engine counters before [verify]: its invariant check solves too. *)
    List.iter (fun g -> Engine_stats.add_engine g.m.es (engine g).qdb) groups;
    let failures = List.concat_map verify groups in
    List.iter
      (fun g ->
        Store.close (engine g).store;
        Sys.remove (wal_path ~dir g.key);
        g.engine <- None)
      groups;
    let sum f = List.fold_left (fun acc g -> acc + f g.m) 0 groups in
    {
      w0;
      w1;
      tallies = List.map (fun g -> g.m) groups;
      busy_s;
      counts = (sum (fun t -> t.n_accept), sum (fun t -> t.n_reject), sum (fun t -> t.n_overload));
      failures;
      gc_before;
      gc_after;
    }
  in
  let rec go index spent acc =
    let more = match n with Some n -> index < n | None -> spent < seconds in
    if not more then List.rev acc
    else begin
      let r = round index in
      go (index + 1) (spent +. wall_s r) (r :: acc)
    end
  in
  go 0 0. []

let run ~dir ~seed ~seconds ~trace =
  (* Warm-up: round 0 once, untimed; the measured round 0 must agree. *)
  let warm = pass ~dir ~seed ~n:1 () in
  let measured = pass ~dir ~seed ~seconds:(if trace then seconds /. 2. else seconds) () in
  let traced =
    if trace then begin
      Span.enabled := true;
      let t = pass ~dir ~seed ~n:(List.length measured) () in
      Span.enabled := false;
      t
    end
    else []
  in
  let tallies = List.concat_map (fun r -> r.tallies) measured in
  let gather f =
    let s = Samples.create () in
    List.iter (fun t -> Samples.append ~into:s (f t)) tallies;
    s
  in
  let wall = List.fold_left (fun acc r -> acc +. wall_s r) 0. measured in
  let ops = List.fold_left (fun acc t -> acc + t.ops) 0 tallies in
  let counts rs = List.map (fun r -> r.counts) rs in
  let committed, rejected, overloaded =
    List.fold_left (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z)) (0, 0, 0) (counts measured)
  in
  let identity =
    (if counts warm <> [] && List.hd (counts warm) <> List.hd (counts measured) then
       [ "travel: round 0 outcome counts differ between repeats" ]
     else [])
    @
    if trace && counts traced <> counts measured then
      [ "travel: outcome counts differ between traced and untraced rounds" ]
    else []
  in
  let accept_m, accept_d = Report.latency "accept" ~tail_q:0.99 (gather (fun t -> t.accept)) in
  let reject_m, reject_d = Report.latency "reject" ~tail_q:0.9 (gather (fun t -> t.reject)) in
  let read_m, read_d = Report.latency "read" ~tail_q:0.95 (gather (fun t -> t.read)) in
  let checkin_m, checkin_d = Report.p50_only "checkin" (gather (fun t -> t.checkin)) in
  let live = match measured with r :: _ -> Array.length r.busy_s | [] -> 1 in
  let setups = Samples.create () in
  List.iter (fun r -> List.iter (fun t -> Samples.add setups t.setup_s) r.tallies) (warm @ measured);
  let end_to_end =
    Report.
      [
        metric "setup_s" "s" (Samples.quantile setups 0.5);
        (* Operations completed per second of the measured rounds' wall
           time, group-commit fsyncs and slow flights included. *)
        metric "ops_per_s" "1/s" (float_of_int ops /. wall);
        checkin_m;
        metric "peak_rss_mb" "MiB" (Host.peak_rss_mb ());
      ]
    @ accept_m @ reject_m @ read_m
  in
  (* Per-layer counters come from the untraced rounds. *)
  let es = Engine_stats.create () in
  List.iter (fun t -> Engine_stats.merge ~into:es t.es) tallies;
  let busy = Array.make live 0. in
  List.iter (fun r -> Array.iteri (fun i b -> busy.(i) <- busy.(i) +. b) r.busy_s) measured;
  let busy_total = Array.fold_left ( +. ) 0. busy in
  let wal_sum f = List.fold_left (fun acc t -> acc + f t.wal) 0 tallies in
  let wal_s f = Obs.Mclock.ns_to_s (List.fold_left (fun acc t -> Int64.add acc (f t.wal)) 0L tallies) in
  let gc_delta field =
    List.fold_left (fun acc r -> acc +. (field r.gc_after -. field r.gc_before)) 0. measured
  in
  let per_layer =
    Report.
      [
        metric "actor.busy_s" "s" busy_total;
        metric "actor.queue_wait_s" "s"
          (Obs.Mclock.ns_to_s (List.fold_left (fun acc t -> Int64.add acc t.queue_wait_ns) 0L tallies));
        metric "actor.imbalance" "ratio" (Array.fold_left max 0. busy /. (busy_total /. float_of_int live));
        metric "gc.minor_collections" "count" (gc_delta (fun s -> float_of_int s.Gc.minor_collections));
        metric "gc.major_collections" "count" (gc_delta (fun s -> float_of_int s.Gc.major_collections));
        metric "gc.minor_words_per_op" "words" (gc_delta (fun s -> s.Gc.minor_words) /. float_of_int (max 1 ops));
        metric "wal.append_s" "s" (wal_s (fun w -> w.Timed_wal.append_ns));
        metric "wal.fsync_s" "s" (wal_s (fun w -> w.Timed_wal.flush_ns));
        metric "wal.fsyncs" "count" (float_of_int (wal_sum (fun w -> w.Timed_wal.flushes)));
        metric "wal.bytes_per_commit" "B"
          (float_of_int (wal_sum (fun w -> w.Timed_wal.bytes)) /. float_of_int (max 1 committed));
      ]
    @ Engine_stats.metrics es
  in
  let trace_info =
    if trace then
      let traced_wall = List.fold_left (fun acc r -> acc +. wall_s r) 0. traced in
      let spans = Span.collect () and windows = List.map (fun r -> (r.w0, r.w1)) traced in
      Some
        {
          Report.spans;
          windows;
          attributed = (windows, spans);
          overhead_pct = 100. *. (traced_wall -. wall) /. wall;
        }
    else None
  in
  ( {
      Report.attempted = ops;
      failed = overloaded;
      failures = List.concat_map (fun r -> r.failures) (warm @ measured @ traced) @ identity;
      metrics = (if trace then per_layer else end_to_end);
      details =
        [
          ("workload", Report.J.Str "travel");
          ( "size",
            Report.J.Obj
              [
                ("flights_per_round", Report.int (flights_per_actor * live));
                ("rounds", Report.int (List.length measured));
                ("rows", Report.int rows);
                ("couples_per_flight", Report.int pairs);
                ("read_fraction", Report.J.Num read_fraction);
                ("standby_per_flight", Report.int standby);
                ("actors_live", Report.int live);
              ] );
          ("flush_policy", Report.J.Str "file WAL per flight, sync Never, one fsync per actor batch (on_batch_end)");
          ( "outcomes",
            Report.J.Obj
              [
                ("committed", Report.int committed);
                ("rejected", Report.int rejected);
                ("overloaded", Report.int overloaded);
              ] );
          ("measured_wall_s", Report.J.Num wall);
          ("setup_flights", Report.int (Array.length (Samples.sorted setups)));
          accept_d;
          reject_d;
          read_d;
          checkin_d;
        ];
    },
    trace_info )
