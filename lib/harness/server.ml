(* Open-loop load generation for the network front door (see mli).

   The generator never waits for a response before sending the next
   request: arrival i of a session fires at [start + i/rate] on the
   monotonic clock, however far behind the server is.  Latency is
   matched receiver-side — responses are FIFO per session, so the
   receiver pairs each response with the oldest outstanding send
   timestamp.  That makes the recorded accept/reject latency include
   engine queueing and group-commit delay, which is the quantity the
   front door's backpressure design actually controls. *)

module Server = Net.Server
module Client = Net.Client
module Frame = Net.Frame
module Wal = Relational.Wal
module Store = Relational.Store
module Travel = Workload.Travel
module Flights = Workload.Flights
module Mclock = Obs.Mclock
module Histogram = Obs.Histogram

type spec = {
  sessions : int;
  requests_per_session : int;
  target_hz : float;
  seed : int;
}

let default_spec = { sessions = 4; requests_per_session = 400; target_hz = 800.; seed = 11 }

type split = {
  count : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

type recording = {
  spec : spec;
  committed : int;
  rejected : int;
  overloaded : int;
  errors : int;
  wall_s : float;
  achieved_hz : float;
  accept : split;
  reject : split;
  batches : int;
  acked_durable : int;
  mean_batch_size : float;
  wal_syncs : int;
  deterministic : bool;
}

(* Session geometry: each session owns a contiguous band of small
   flights — 8 users and 3 seats per flight, so roughly a third of the
   session's requests commit and both latency splits fill.  Shallow
   flights are load-bearing: admission cost grows superlinearly with
   the pending set standing on a partition (see lib/harness/admission.ml),
   so a bench that funnelled hundreds of bookings into one flight would
   measure the solver's deep-k regime, not the front door. *)
let users_per_flight = 8

let flights_per_session spec =
  max 1 ((spec.requests_per_session + users_per_flight - 1) / users_per_flight)

let geometry_for ~sessions ~requests_per_session =
  let fps =
    flights_per_session
      { sessions; requests_per_session; target_hz = 0.; seed = 0 }
  in
  { Flights.flights = sessions * fps; rows_per_flight = 1; dest = "LA" }

let geometry_of spec =
  geometry_for ~sessions:spec.sessions ~requests_per_session:spec.requests_per_session

let submission_of ~seed u =
  let entangled = Hashtbl.hash (seed, u.Travel.name, "load") land 1 = 0 in
  let text = if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u in
  let partner = if entangled then Some u.Travel.partner else None in
  { Frame.label = u.Travel.name; partner; text }

(* Per-session outcome + latency tally, collected by the receiver. *)
type tally = {
  mutable t_committed : int;
  mutable t_rejected : int;
  mutable t_overloaded : int;
  mutable t_errors : int;
  t_accept : Histogram.t;
  t_reject : Histogram.t;
}

let fresh_tally () =
  {
    t_committed = 0;
    t_rejected = 0;
    t_overloaded = 0;
    t_errors = 0;
    t_accept = Histogram.create ();
    t_reject = Histogram.create ();
  }

(* One session: a sender thread pacing the absolute-time schedule and a
   receiver thread (this one) matching FIFO responses to send stamps.
   The timestamp queue is the only shared state; both sides touch it
   under [m]. *)
let drive_session ~connect ~seed ~target_hz ~requests users tally =
  let client = connect () in
  let stamps = Queue.create () in
  let m = Mutex.create () in
  let interval = 1. /. target_hz in
  let submissions =
    Array.init requests (fun i -> submission_of ~seed (List.nth users (i mod List.length users)))
  in
  let sent = ref 0 in
  let sender =
    Thread.create
      (fun () ->
        let start = Mclock.now_ns () in
        (try
           for i = 0 to requests - 1 do
             let due = float_of_int i *. interval in
             let behind = due -. Mclock.elapsed_s start in
             if behind > 0. then Unix.sleepf behind;
             Mutex.lock m;
             Queue.push (Mclock.now_ns ()) stamps;
             Mutex.unlock m;
             if not (Client.send client (Frame.Submit_datalog submissions.(i))) then raise Exit;
             incr sent
           done
         with Exit -> ()))
      ()
  in
  (try
     for _ = 0 to requests - 1 do
       match Client.recv client with
       | Error _ -> raise Exit
       | Ok frame ->
         let stamp =
           Mutex.lock m;
           let s = Queue.pop stamps in
           Mutex.unlock m;
           s
         in
         let dt = Mclock.elapsed_s stamp in
         (match frame with
          | Frame.Committed _ ->
            tally.t_committed <- tally.t_committed + 1;
            Histogram.observe tally.t_accept dt
          | Frame.Rejected _ ->
            tally.t_rejected <- tally.t_rejected + 1;
            Histogram.observe tally.t_reject dt
          | Frame.Overloaded _ -> tally.t_overloaded <- tally.t_overloaded + 1
          | _ -> tally.t_errors <- tally.t_errors + 1)
     done
   with Exit | Queue.Empty -> ());
  Thread.join sender;
  Client.close client;
  !sent

let split_of h =
  let q p = 1e6 *. Histogram.quantile h p in
  {
    count = Histogram.count h;
    mean_us = 1e6 *. Histogram.mean h;
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
  }

let merge_tallies ts =
  let acc = fresh_tally () in
  List.iter
    (fun t ->
      acc.t_committed <- acc.t_committed + t.t_committed;
      acc.t_rejected <- acc.t_rejected + t.t_rejected;
      acc.t_overloaded <- acc.t_overloaded + t.t_overloaded;
      acc.t_errors <- acc.t_errors + t.t_errors;
      Histogram.merge ~into:acc.t_accept t.t_accept;
      Histogram.merge ~into:acc.t_reject t.t_reject)
    ts;
  acc

let run_sessions ~connect ~spec =
  let geometry = geometry_of spec in
  let fps = flights_per_session spec in
  let users =
    Travel.make_users ~flights:geometry.Flights.flights
      ~pairs_per_flight:(users_per_flight / 2)
  in
  let tallies = List.init spec.sessions (fun _ -> fresh_tally ()) in
  let start = Mclock.now_ns () in
  let total_sent = ref 0 in
  let sent_m = Mutex.create () in
  let threads =
    List.mapi
      (fun f tally ->
        Thread.create
          (fun () ->
            let mine = List.filter (fun u -> u.Travel.flight / fps = f) users in
            let n =
              drive_session ~connect ~seed:spec.seed ~target_hz:spec.target_hz
                ~requests:spec.requests_per_session mine tally
            in
            Mutex.lock sent_m;
            total_sent := !total_sent + n;
            Mutex.unlock sent_m)
          ())
      tallies
  in
  List.iter Thread.join threads;
  let wall = Mclock.elapsed_s start in
  (merge_tallies tallies, wall, !total_sent)

(* -- In-process loopback bench ---------------------------------------------- *)

let one_run ~spec ~wal_path =
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let backend = Wal.file_backend wal_path in
  let store = Flights.fresh_store ~backend (geometry_of spec) in
  let config = { Server.default_config with Server.engine_queue = 1024 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let connect () = Client.connect (Server.address server) in
  let tally, wall, _sent = run_sessions ~connect ~spec in
  let gc = Server.group_commit server in
  let batches = Net.Group_commit.batches gc in
  let acked = Net.Group_commit.acked_durable gc in
  let mean_bs = Net.Group_commit.mean_batch_size gc in
  Server.stop server;
  (match Server.failure server with
   | Some exn -> failwith ("server failed under load: " ^ Printexc.to_string exn)
   | None -> ());
  let syncs = (Store.wal_stats store).Wal.syncs in
  if Sys.file_exists wal_path then Sys.remove wal_path;
  (tally, wall, batches, acked, mean_bs, syncs)

let outcomes t = (t.t_committed, t.t_rejected, t.t_overloaded, t.t_errors)

let bench ?(spec = default_spec) ?(wal_path = "results/server_bench.wal") () =
  let dir = Filename.dirname wal_path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* Same seed twice: arrival *timing* varies with the scheduler, but
     per-flight admission order is each session's send order, so the
     verdicts must not.  Keep the warm run's clocks. *)
  let cold, _, _, _, _, _ = one_run ~spec ~wal_path in
  let tally, wall, batches, acked, mean_bs, syncs = one_run ~spec ~wal_path in
  let requests = spec.sessions * spec.requests_per_session in
  {
    spec;
    committed = tally.t_committed;
    rejected = tally.t_rejected;
    overloaded = tally.t_overloaded;
    errors = tally.t_errors;
    wall_s = wall;
    achieved_hz = (if wall > 0. then float_of_int requests /. wall else 0.);
    accept = split_of tally.t_accept;
    reject = split_of tally.t_reject;
    batches;
    acked_durable = acked;
    mean_batch_size = mean_bs;
    wal_syncs = syncs;
    deterministic = outcomes cold = outcomes tally;
  }

(* -- Reporting ---------------------------------------------------------------- *)

let print_split name s =
  Printf.printf "  %-7s %6d obs  mean %8.1f us  p50 %8.1f  p99 %8.1f  p999 %8.1f\n" name
    s.count s.mean_us s.p50_us s.p99_us s.p999_us

let print r =
  Printf.printf
    "server bench: %d session(s) x %d req @ %.0f Hz each, seed %d\n"
    r.spec.sessions r.spec.requests_per_session r.spec.target_hz r.spec.seed;
  Printf.printf
    "  outcomes: %d committed, %d rejected, %d overloaded, %d errors in %.2fs (%.0f req/s)\n"
    r.committed r.rejected r.overloaded r.errors r.wall_s r.achieved_hz;
  Printf.printf "  group commit: %d batches, %d acked, mean batch %.2f, %d wal syncs\n"
    r.batches r.acked_durable r.mean_batch_size r.wal_syncs;
  print_split "accept" r.accept;
  print_split "reject" r.reject;
  Printf.printf "  deterministic outcomes across same-seed reruns: %b\n%!" r.deterministic

let split_json s =
  Printf.sprintf
    "{\"count\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p99\": %.1f, \"p999\": %.1f}"
    s.count s.mean_us s.p50_us s.p99_us s.p999_us

let json_of_recording r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"qdb.bench.server/v1\",\n";
  (* "domains" is always 1: the engine runs on the server's loop thread.
     The field stays because bench diff matches workload objects field
     for field against the committed baseline. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"workload\": {\"sessions\": %d, \"requests_per_session\": %d, \"target_hz\": %.1f, \
        \"domains\": 1, \"seed\": %d},\n"
       r.spec.sessions r.spec.requests_per_session r.spec.target_hz r.spec.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"deterministic\": %b,\n" r.deterministic);
  Buffer.add_string b
    (Printf.sprintf
       "  \"outcomes\": {\"committed\": %d, \"rejected\": %d, \"overloaded\": %d, \
        \"errors\": %d},\n"
       r.committed r.rejected r.overloaded r.errors);
  Buffer.add_string b
    (Printf.sprintf
       "  \"group_commit\": {\"batches\": %d, \"acked_durable\": %d, \
        \"mean_batch_size\": %.3f, \"wal_syncs\": %d},\n"
       r.batches r.acked_durable r.mean_batch_size r.wal_syncs);
  Buffer.add_string b (Printf.sprintf "  \"wall_s\": %.3f,\n" r.wall_s);
  Buffer.add_string b (Printf.sprintf "  \"achieved_hz\": %.1f,\n" r.achieved_hz);
  Buffer.add_string b
    (Printf.sprintf "  \"latency_us\": {\n    \"accept\": %s,\n    \"reject\": %s\n  }\n"
       (split_json r.accept) (split_json r.reject));
  Buffer.add_string b "}\n";
  Buffer.contents b

let write ?(path = "results/BENCH_server.json") r =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (json_of_recording r);
  close_out oc;
  Printf.printf "(server bench written to %s)\n%!" path;
  path

(* -- External-server load ----------------------------------------------------- *)

type load_stats = {
  l_sent : int;
  l_committed : int;
  l_rejected : int;
  l_overloaded : int;
  l_errors : int;
  l_wall_s : float;
  l_accept : split;
  l_reject : split;
}

let load ~host ~port ~sessions ~requests_per_session ~target_hz ~seed =
  let spec = { sessions; requests_per_session; target_hz; seed } in
  let connect () = Client.connect (Server.Tcp (host, port)) in
  let tally, wall, sent = run_sessions ~connect ~spec in
  {
    l_sent = sent;
    l_committed = tally.t_committed;
    l_rejected = tally.t_rejected;
    l_overloaded = tally.t_overloaded;
    l_errors = tally.t_errors;
    l_wall_s = wall;
    l_accept = split_of tally.t_accept;
    l_reject = split_of tally.t_reject;
  }

let print_load s =
  Printf.printf "load: %d sent, %d committed, %d rejected, %d overloaded, %d errors in %.2fs\n"
    s.l_sent s.l_committed s.l_rejected s.l_overloaded s.l_errors s.l_wall_s;
  print_split "accept" s.l_accept;
  print_split "reject" s.l_reject;
  flush stdout
