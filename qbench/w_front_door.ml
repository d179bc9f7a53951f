(* front_door: the TCP server under an open-loop generator.

   The server runs in its own process (this executable with [--serve]),
   on a file WAL whose fsyncs the server's group commit schedules.  The
   load comes from this process: one thread multiplexing two
   connections with [Unix.select] and [Net.Frame].

   Traffic is shallow flights (one row, three seats, eight buyers, half
   of them entangled with a partner), so the solver does little and the
   latency is mostly framing, thread handoffs, the engine queue, the
   fsync and the wait for group commit.  Per flight a connection sends
   the eight bookings in a seeded order, two collapse reads of
   early bookers' seats ([Query]), and a check-in ([Ground_all]):
   eleven requests, whose replies are known in advance — the first three
   bookings commit, the other five are rejected, each read returns one
   row.  Connection [c] books flights [c], [c + 2], ...

   Phases: an open loop at [rate] requests per second (requests are
   timed from when they were due, and the generator's lateness is
   recorded), then a closed loop with [window] requests in flight per
   connection, which measures capacity.  Latencies come from the open
   loop only; the closed loop keeps its own tally, whose replies are
   checked and counted but not timed. *)

module Qdb = Quantum.Qdb
module Frame = Net.Frame
module Server = Net.Server
module Store = Relational.Store
module Wal = Relational.Wal
module Travel = Workload.Travel
module Flights = Workload.Flights
module Prng = Workload.Prng
module Histogram = Obs.Histogram
module J = Obs.Json

let rate = 400.  (* open-loop requests per second, both connections together *)
let window = 16  (* closed-loop requests in flight per connection: the server's session_buffer *)
let connections = 2
let users_per_flight = 8
let seats_per_flight = 3
let server_flights = 10000
let open_share = 0.75  (* of the run; the closed loop has the rest *)
let setups = 5  (* servers started per run to time set-up; the last one serves *)

(* -- Server process ---------------------------------------------------------- *)

let span_line (s : Span.t) =
  Printf.sprintf "%d %d %d %s %Ld %Ld %d" s.Span.id s.Span.parent s.Span.rid s.Span.name s.Span.start_ns
    s.Span.stop_ns s.Span.track

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Serve until stdin closes; then stop, and print one JSON line with the
   server's own counters (engine, WAL wrapper, registry, GC, memory).
   A line on stdin marks the end of the open loop: the request latencies
   served so far are kept apart from the closed loop's.  Spans go to
   [dir]/server-spans.txt. *)
let serve ~dir ~flights ~trace =
  Span.enabled := trace;
  let path = Filename.concat dir "server.wal" in
  if Sys.file_exists path then Sys.remove path;
  let wal = Timed_wal.wrap (Wal.file_backend path) in
  let store =
    Flights.fresh_store ~backend:wal.Timed_wal.backend
      { Flights.flights; rows_per_flight = seats_per_flight / 3; dest = "LA" }
  in
  Timed_wal.reset wal;
  let config = { Server.default_config with Server.engine_queue = 1024 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let port = match Server.address server with Server.Tcp (_, p) -> p | Server.Unix_sock _ -> 0 in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
  let reg = Server.registry server in
  let served () =
    let h = Histogram.create () in
    List.iter
      (fun name -> Histogram.merge ~into:h (Obs.Registry.histogram reg name))
      [ "net.accept.latency"; "net.reject.latency"; "net.overload.latency"; "net.request.latency" ];
    h
  in
  let open_loop = ref (Histogram.create ()) in
  Printf.printf "port %d\n%!" port;
  (try
     while true do
       ignore (input_line stdin);
       open_loop := served ()
     done
   with End_of_file -> ());
  Server.stop server;
  Sys.remove path;
  let gc1 = Gc.quick_stat () and cpu1 = cpu_s () in
  let m = Qdb.metrics (Server.qdb server) in
  let served = !open_loop in
  let oc = open_out (Filename.concat dir "server-spans.txt") in
  List.iter (fun s -> output_string oc (span_line s ^ "\n")) (Span.collect ());
  close_out oc;
  let num x = J.Num x and int n = J.Num (float_of_int n) in
  let open Quantum.Metrics in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "failure",
              J.Str (match Server.failure server with Some e -> Printexc.to_string e | None -> "") );
            ("submitted", int m.submitted);
            ("committed", int m.committed);
            ("rejected", int m.rejected);
            ("overloaded", int m.overloaded);
            ("solver_nodes", int m.solver_stats.Solver.Backtrack.nodes);
            ("solver_candidates", int m.solver_stats.Solver.Backtrack.candidates);
            ("governor_exhaustions", int m.governor_exhaustions);
            ("cache_extensions", int m.cache_stats.Solver.Cache.extensions);
            ("cache_hits", int m.cache_stats.Solver.Cache.extension_hits);
            ("submit_s", num (Histogram.sum m.submit_latency));
            ("ground_s", num (Histogram.sum m.ground_latency));
            ("read_s", num (Histogram.sum m.read_latency));
            ("wal_append_s", num (Obs.Mclock.ns_to_s wal.Timed_wal.append_ns));
            ("wal_fsync_s", num (Obs.Mclock.ns_to_s wal.Timed_wal.flush_ns));
            ("wal_fsyncs", int wal.Timed_wal.flushes);
            ("wal_bytes", int wal.Timed_wal.bytes);
            ( "served_quantiles_s",
              J.List
                (List.map (fun q -> num (Histogram.quantile served q)) Report.(0.5 :: tail_ladder)) );
            ("served_open_loop", int (Histogram.count served));
            ("batch_mean", num (Net.Group_commit.mean_batch_size (Server.group_commit server)));
            ("gc_minor_collections", int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
            ("gc_major_collections", int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("gc_minor_words", num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
            ("cpu_s", num (cpu1 -. cpu0));
            ("peak_rss_mb", num (Host.peak_rss_mb ()));
          ]))

(* -- Requests ----------------------------------------------------------------- *)

type kind =
  | Book of int  (** position in the flight's booking order *)
  | Read
  | Checkin

type request = {
  frame : Frame.t;
  kind : kind;
  label : string;
}

(* Flight [f]'s eleven requests. *)
let flight_requests ~seed f =
  let rng = Prng.create ((seed * 1_000_003) + f) in
  let users =
    List.concat_map
      (fun p ->
        let a = Printf.sprintf "u%d_%da" f p and b = Printf.sprintf "u%d_%db" f p in
        [ { Travel.name = a; partner = b; flight = f }; { Travel.name = b; partner = a; flight = f } ])
      (List.init (users_per_flight / 2) Fun.id)
    |> Prng.shuffle_list rng
  in
  let book i u =
    let entangled = Prng.bool rng in
    let text = if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u in
    let partner = if entangled then Some u.Travel.partner else None in
    { frame = Frame.Submit_datalog { Frame.label = u.Travel.name; partner; text }; kind = Book i;
      label = u.Travel.name }
  in
  let read u =
    { frame = Frame.Query (Printf.sprintf "(f, s) :- Bookings(%S, f, s)" u.Travel.name); kind = Read;
      label = u.Travel.name }
  in
  let bookings = List.mapi book users in
  let nth = List.nth users in
  List.filteri (fun i _ -> i < 4) bookings
  @ [ read (nth 0) ]
  @ List.filteri (fun i _ -> i >= 4) bookings
  @ [ read (nth 2); { frame = Frame.Ground_all; kind = Checkin; label = "" } ]

(* A connection's unbounded request stream, flight after flight. *)
type stream = {
  seed : int;
  conn : int;
  mutable flight : int;  (** index among this connection's flights *)
  mutable pending : request list;
}

let next_request st =
  match st.pending with
  | r :: rest ->
    st.pending <- rest;
    Some r
  | [] ->
    let f = st.conn + (connections * st.flight) in
    if f >= server_flights then None
    else begin
      st.flight <- st.flight + 1;
      match flight_requests ~seed:st.seed f with
      | r :: rest ->
        st.pending <- rest;
        Some r
      | [] -> None
    end

(* -- Connections ---------------------------------------------------------------- *)

type inflight = {
  req : request;
  rid : int;
  due_ns : int64;
}

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  waiting : inflight Queue.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* Every request leaves when it is sent: without this, Nagle's
     algorithm could hold one behind an unacknowledged earlier one. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; len = 0; waiting = Queue.create () }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

exception Protocol of string

(* Read what the socket has and decode every complete frame. *)
let read_frames c =
  if c.len = Bytes.length c.buf then c.buf <- Bytes.extend c.buf 0 c.len;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then raise (Protocol "server closed the connection");
  c.len <- c.len + n;
  let rec decode off acc =
    match Frame.decode c.buf ~off ~len:(c.len - off) with
    | Frame.Frame (f, used) -> decode (off + used) (f :: acc)
    | Frame.Need_more ->
      Bytes.blit c.buf off c.buf 0 (c.len - off);
      c.len <- c.len - off;
      List.rev acc
    | Frame.Malformed msg -> raise (Protocol msg)
  in
  decode 0 []

(* Blocking round trip on an idle connection. *)
let call c frame =
  write_all c.fd (Frame.encode frame);
  let rec wait () =
    match read_frames c with
    | f :: _ -> f
    | [] -> wait ()
  in
  wait ()

(* -- Tally ---------------------------------------------------------------------- *)

type tally = {
  accept : Samples.t;
  reject : Samples.t;
  read : Samples.t;
  checkin : Samples.t;
  late : Samples.t;
  replied : Samples.t;  (** every reply's latency, in arrival order *)
  mutable committed : string list;
  mutable n_commit : int;
  mutable n_reject : int;
  mutable n_overload : int;
  mutable n_error : int;
  mutable n_reads : int;
  mutable n_checkins : int;
  mutable misses : string list;
}

let fresh_tally () =
  {
    accept = Samples.create ();
    reject = Samples.create ();
    read = Samples.create ();
    checkin = Samples.create ();
    late = Samples.create ();
    replied = Samples.create ();
    committed = [];
    n_commit = 0;
    n_reject = 0;
    n_overload = 0;
    n_error = 0;
    n_reads = 0;
    n_checkins = 0;
    misses = [];
  }

let replies t = t.n_commit + t.n_reject + t.n_overload + t.n_error + t.n_reads + t.n_checkins

(* Record a reply against the request it answers, and check it is the
   reply the flight's arithmetic predicts. *)
let settle t (w : inflight) reply ~now =
  let dt = Obs.Mclock.ns_to_s (Int64.sub now w.due_ns) in
  Samples.add t.replied dt;
  Span.record ~rid:w.rid ~name:"net.request" ~start_ns:w.due_ns ~stop_ns:now;
  let miss what = t.misses <- Printf.sprintf "front_door %s %s: %s" what w.req.label (Frame.to_string reply) :: t.misses in
  match w.req.kind, reply with
  | Book i, Frame.Committed _ ->
    Samples.add t.accept dt;
    t.n_commit <- t.n_commit + 1;
    t.committed <- w.req.label :: t.committed;
    if i >= seats_per_flight then miss "booking past capacity committed"
  | Book i, Frame.Rejected _ ->
    Samples.add t.reject dt;
    t.n_reject <- t.n_reject + 1;
    if i < seats_per_flight then miss "booking within capacity rejected"
  | Book _, Frame.Overloaded _ -> t.n_overload <- t.n_overload + 1
  | Read, Frame.Rows rows ->
    Samples.add t.read dt;
    t.n_reads <- t.n_reads + 1;
    if List.length rows <> 1 then miss "read of a seated booker"
  | Checkin, Frame.Grounded _ ->
    Samples.add t.checkin dt;
    t.n_checkins <- t.n_checkins + 1
  | _, _ ->
    t.n_error <- t.n_error + 1;
    miss "unexpected reply"

let receive t c =
  let frames = Span.with_ "gen.recv" (fun () -> read_frames c) in
  let now = Obs.Mclock.now_ns () in
  List.iter
    (fun reply ->
      match Queue.take_opt c.waiting with
      | Some w -> settle t w reply ~now
      | None -> raise (Protocol "reply without a request"))
    frames

let send c st ~rid ~due_ns =
  match next_request st with
  | None -> false
  | Some req ->
    Span.with_ ~rid "gen.send" (fun () -> write_all c.fd (Frame.encode req.frame));
    Queue.add { req; rid; due_ns } c.waiting;
    true

(* Wait until a connection is readable or [deadline_ns] passes; settle
   what arrived. *)
let pump t conns ~deadline_ns =
  let timeout = max 0. (Obs.Mclock.ns_to_s (Int64.sub deadline_ns (Obs.Mclock.now_ns ()))) in
  let fds = List.filter_map (fun c -> if Queue.is_empty c.waiting then None else Some c.fd) conns in
  let ready, _, _ =
    Span.with_ "gen.wait" (fun () ->
        if fds = [] then begin
          Unix.sleepf timeout;
          ([], [], [])
        end
        else
          try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
  in
  List.iter (fun c -> if List.mem c.fd ready then receive t c) conns

let outstanding conns = List.fold_left (fun acc c -> acc + Queue.length c.waiting) 0 conns

let drain t conns =
  while outstanding conns > 0 do
    pump t conns ~deadline_ns:(Int64.add (Obs.Mclock.now_ns ()) 1_000_000_000L)
  done

(* Request [i] is due at [t0 + i / rate], on connection [i mod 2];
   lateness is how far past its due time it actually went out.  The
   phase ends when the last reply is in. *)
let open_loop t conns streams ~seconds =
  let t0 = Obs.Mclock.now_ns () in
  let period_ns = 1e9 /. rate in
  let n = int_of_float (seconds *. rate) in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i *. period_ns)) in
  let i = ref 0 in
  while !i < n do
    let due_ns = due !i in
    let now = Obs.Mclock.now_ns () in
    if Int64.compare now due_ns >= 0 then begin
      Samples.add t.late (Obs.Mclock.ns_to_s (Int64.sub now due_ns));
      let c = !i mod connections in
      if not (send (List.nth conns c) streams.(c) ~rid:(!i + 1) ~due_ns) then
        raise (Protocol "ran out of flights");
      incr i
    end
    else pump t conns ~deadline_ns:due_ns
  done;
  drain t conns;
  (t0, Obs.Mclock.now_ns ())

(* Every connection keeps [window] requests in flight for [seconds];
   returns replies per second. *)
let closed_loop t conns streams ~seconds =
  let t0 = Obs.Mclock.now_ns () in
  let stop = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let rid = ref 1_000_000 in
  let top_up () =
    List.iteri
      (fun c conn ->
        while Queue.length conn.waiting < window do
          if not (send conn streams.(c) ~rid:!rid ~due_ns:(Obs.Mclock.now_ns ())) then
            raise (Protocol "ran out of flights");
          incr rid
        done)
      conns
  in
  while Int64.compare (Obs.Mclock.now_ns ()) stop < 0 do
    top_up ();
    pump t conns ~deadline_ns:stop
  done;
  let elapsed = Obs.Mclock.elapsed_s t0 in
  let done_ = replies t in
  drain t conns;
  float_of_int done_ /. elapsed

(* -- Server lifecycle ------------------------------------------------------------ *)

type server = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  port : int;
  sdir : string;
}

let launch ~exe ~dir ~trace =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; dir; "--flights"; string_of_int server_flights; "--trace";
         (if trace then "1" else "0") |]
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let from_child = Unix.in_channel_of_descr stdout_r in
  let to_child = Unix.out_channel_of_descr stdin_w in
  match Scanf.sscanf (input_line from_child) "port %d" Fun.id with
  | port -> { pid; to_child; from_child; port; sdir = dir }
  | exception e ->
    close_out_noerr to_child;
    ignore (Unix.waitpid [] pid);
    raise e

(* Tell the server the open loop is over. *)
let mark_open_loop_end s =
  output_string s.to_child "open loop done\n";
  flush s.to_child

(* Close the server's stdin: it stops, reports, and exits. *)
let shutdown s =
  close_out_noerr s.to_child;
  let rec last acc = match input_line s.from_child with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  close_in_noerr s.from_child;
  let _, status = Unix.waitpid [] s.pid in
  match line, status with
  | Some l, Unix.WEXITED 0 -> J.of_string l
  | _ -> failwith "front_door server exited without a report"

let server_spans dir =
  let path = Filename.concat dir "server-spans.txt" in
  Host.read_lines path
  |> List.filter_map (fun line ->
         try
           Scanf.sscanf line "%d %d %d %s %Ld %Ld %d" (fun id parent rid name start_ns stop_ns track ->
               (* Keep the server's ids and tracks apart from ours. *)
               let shift n = if n = 0 then 0 else n + 1_000_000_000 in
               Some { Span.id = shift id; parent = shift parent; rid; name; start_ns; stop_ns; track = track + 1000 })
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* -- Passes: one server, both loops ------------------------------------------------ *)

type pass = {
  tally : tally;  (** the open loop *)
  closed : tally;
  window_ns : int64 * int64;  (** the open loop *)
  capacity : float;  (** closed-loop replies per second *)
  report : J.t;
  setup_s : float;
  gen_cpu_s : float;
  spans : Span.t list;
  audit : string list;
}

let open_counts p = (p.tally.n_commit, p.tally.n_reject, p.tally.n_reads, p.tally.n_checkins)

let field report name =
  match J.member name report with
  | Some v -> Option.value ~default:0. (J.to_number v)
  | None -> 0.

let set_up ~exe ~dir ~trace =
  let t0 = Obs.Mclock.now_ns () in
  let s = launch ~exe ~dir ~trace in
  match
    let conns = List.init connections (fun _ -> connect s.port) in
    List.iter
      (fun c ->
        match call c (Frame.Hello "qbench") with
        | Frame.Hello_ok _ -> ()
        | f -> raise (Protocol ("hello: " ^ Frame.to_string f)))
      conns;
    conns
  with
  | conns -> (s, conns, Obs.Mclock.elapsed_s t0)
  | exception e ->
    ignore (shutdown s);
    raise e

(* One server, both loops, and the final audit.  A seed always sends
   the same requests. *)
let one_pass ~exe ~dir ~seed ~seconds ~trace =
  let s, conns, dt = set_up ~exe ~dir ~trace in
  let t = fresh_tally () and ct = fresh_tally () in
  let cpu0 = cpu_s () in
  Span.enabled := trace;
  let result =
    Fun.protect
      ~finally:(fun () -> Span.enabled := false)
      (fun () ->
        try
          let streams = Array.init connections (fun conn -> { seed; conn; flight = 0; pending = [] }) in
          let window_ns = open_loop t conns streams ~seconds:(open_share *. seconds) in
          mark_open_loop_end s;
          let capacity = closed_loop ct conns streams ~seconds:((1. -. open_share) *. seconds) in
          let n_commit = t.n_commit + ct.n_commit in
          (* Audit: check everyone in, then read the whole Bookings table. *)
          let c = List.hd conns in
          let audit =
            match call c Frame.Ground_all with
            | Frame.Grounded _ ->
              (match call c (Frame.Query "(u, f, s) :- Bookings(u, f, s)") with
               | Frame.Rows rows ->
                 let parsed =
                   List.filter_map
                     (fun r -> try Some (Scanf.sscanf r "(%S, %d, %d)" (fun u f s -> (u, f, s))) with _ -> None)
                     rows
                 in
                 (if List.length parsed <> List.length rows then [ "front_door: unparseable Bookings row" ] else [])
                 @ Calls.check_seats ~what:"front_door" ~rows:parsed ~committed:(t.committed @ ct.committed)
                 @ (if List.length rows <> n_commit then
                      [ Printf.sprintf "front_door: %d bookings for %d commits" (List.length rows) n_commit ]
                    else [])
               | f -> [ "front_door audit query: " ^ Frame.to_string f ])
            | f -> [ "front_door audit check-in: " ^ Frame.to_string f ]
          in
          Ok (window_ns, capacity, audit)
        with e -> Error (Printexc.to_string e))
  in
  let gen_cpu_s = cpu_s () -. cpu0 in
  List.iter (fun c -> Unix.close c.fd) conns;
  let report = shutdown s in
  match result with
  | Error msg -> failwith (Printf.sprintf "front_door: %s (server report: %s)" msg (J.to_string report))
  | Ok (window_ns, capacity, audit) ->
    {
      tally = t;
      closed = ct;
      window_ns;
      capacity;
      report;
      setup_s = dt;
      gen_cpu_s;
      spans = (if trace then Span.collect () @ server_spans dir else []);
      audit;
    }

let server_checks p =
  let both g = g p.tally + g p.closed in
  let f = field p.report in
  List.concat
    [
      (match J.member "failure" p.report with
       | Some (J.Str "") | None -> []
       | Some v -> [ "front_door server failed: " ^ J.to_string v ]);
      (if f "submitted" <> f "committed" +. f "rejected" +. f "overloaded" then
         [ "front_door: server submitted <> committed + rejected + overloaded" ]
       else []);
      (if
         (int_of_float (f "committed"), int_of_float (f "rejected"), int_of_float (f "overloaded"))
         <> (both (fun t -> t.n_commit), both (fun t -> t.n_reject), both (fun t -> t.n_overload))
       then [ "front_door: server outcome counts differ from the replies seen" ]
       else []);
      (let errors = both (fun t -> t.n_error) in
       if errors > 0 then [ Printf.sprintf "front_door: %d error replies" errors ] else []);
    ]
  @ List.rev p.tally.misses @ List.rev p.closed.misses @ p.audit

(* A server that is started, greeted and stopped: its set-up time. *)
let spare_setup ~exe ~dir =
  let s, conns, dt = set_up ~exe ~dir ~trace:false in
  List.iter (fun c -> Unix.close c.fd) conns;
  ignore (shutdown s);
  dt

(* One server serves the whole run: each connection falls into its
   steady state within seconds (NOTES.md), and a long open loop keeps
   the first seconds a small share of the samples.  Traced, the run is
   one untraced and one traced pass on the same inputs. *)
let run ~exe ~dir ~seed ~seconds ~trace =
  let spare = List.init (setups - 1) (fun _ -> spare_setup ~exe ~dir) in
  let seconds = if trace then seconds /. 2. else seconds in
  let p = one_pass ~exe ~dir ~seed ~seconds ~trace:false in
  let traced = if trace then Some (one_pass ~exe ~dir ~seed ~seconds ~trace:true) else None in
  let t = p.tally and closed = p.closed in
  let setup_samples = spare @ [ p.setup_s ] in
  let open_s = Obs.Mclock.ns_to_s (Int64.sub (snd p.window_ns) (fst p.window_ns)) in
  let accept_m, accept_d = Report.latency "accept" ~tail_q:0.99 t.accept in
  let reject_m, reject_d = Report.latency "reject" ~tail_q:0.99 t.reject in
  let read_m, read_d = Report.latency "read" ~tail_q:0.98 t.read in
  let checkin_m, checkin_d = Report.p50_only "checkin" t.checkin in
  let late_m, late_d = Report.latency "gen.late" ~tail_q:0.99 t.late in
  let f = field p.report in
  let end_to_end =
    Report.
      [
        metric "setup_s" "s" (median setup_samples);
        (* Work completed per second with the server saturated: the
           closed loop's replies per second. *)
        metric "ops_per_s" "1/s" p.capacity;
        checkin_m;
        metric "peak_rss_mb" "MiB" (f "peak_rss_mb");
      ]
    @ accept_m @ reject_m @ read_m
  in
  let served = replies p.tally in
  let served_all = served + replies p.closed in
  let served_q q =
    let levels = 0.5 :: Report.tail_ladder in
    let values = match J.member "served_quantiles_s" p.report with Some v -> J.to_list v | None -> [] in
    List.combine levels values
    |> List.assoc_opt q
    |> Option.map (fun v -> 1e3 *. Option.value ~default:0. (J.to_number v))
    |> Option.value ~default:0.
  in
  let server_tail_q =
    List.find_opt (fun q -> float_of_int served *. (1. -. q) >= float_of_int Report.min_beyond) Report.tail_ladder
    |> Option.value ~default:0.5
  in
  let per_layer =
    Report.
      [
        metric "gc.minor_collections" "count" (f "gc_minor_collections");
        metric "gc.major_collections" "count" (f "gc_major_collections");
        metric "gc.minor_words_per_op" "words" (f "gc_minor_words" /. float_of_int (max 1 served_all));
        (* The server admits through [Qdb.submit]: check and commit are
           one call there, reported as check with the WAL time taken out. *)
        metric "core.check_s" "s" (f "submit_s" -. f "wal_append_s");
        metric "core.ground_s" "s" (f "ground_s");
        metric "core.read_s" "s" (f "read_s");
        metric "solver.nodes" "count" (f "solver_nodes");
        metric "solver.candidates" "count" (f "solver_candidates");
        metric "solver.nodes_per_reject" "count" (f "solver_nodes" /. Float.max 1. (f "rejected"));
        metric "solver.cache_hit_pct" "%" (100. *. f "cache_hits" /. Float.max 1. (f "cache_extensions"));
        metric "governor.exhaustions" "count" (f "governor_exhaustions");
        metric "wal.append_s" "s" (f "wal_append_s");
        metric "wal.fsync_s" "s" (f "wal_fsync_s");
        metric "wal.fsyncs" "count" (f "wal_fsyncs");
        metric "wal.bytes_per_commit" "B" (f "wal_bytes" /. Float.max 1. (f "committed"));
        metric "net.server_p50_ms" "ms" (served_q 0.5);
        metric "net.server_tail_ms" "ms" (served_q server_tail_q);
        metric "net.batch_mean" "count" (f "batch_mean");
        List.nth late_m 1;
      ]
  in
  let trace_info =
    Option.map
      (fun q ->
        let cpu p =
          (p.gen_cpu_s +. field p.report "cpu_s") /. float_of_int (max 1 (replies p.tally + replies p.closed))
        in
        (* The open loop's request time, from due time to reply, split
           by the generator's send and receive spans and the server's
           WAL spans.  The generator's idle wait is not a layer. *)
        let w0, w1 = q.window_ns in
        let requests, layers =
          List.partition (fun s -> s.Span.name = "net.request") q.spans
        in
        let requests =
          List.filter_map
            (fun s -> if s.Span.start_ns >= w0 && s.Span.stop_ns <= w1 then Some (s.Span.start_ns, s.Span.stop_ns) else None)
            requests
        in
        {
          Report.spans = q.spans;
          windows = [ q.window_ns ];
          attributed = (requests, List.filter (fun s -> s.Span.name <> "gen.wait") layers);
          overhead_pct = 100. *. (cpu q -. cpu p) /. cpu p;
        })
      traced
  in
  let identity =
    match traced with
    | Some q when open_counts q <> open_counts p ->
      [ "front_door: open-loop outcome counts differ between traced and untraced passes" ]
    | _ -> []
  in
  let failures = List.concat_map server_checks (p :: Option.to_list traced) @ identity in
  ( {
      Report.attempted = replies t + replies closed;
      failed = t.n_error + t.n_overload + closed.n_error + closed.n_overload;
      failures;
      metrics = (if trace then per_layer else end_to_end);
      details =
        [
          ("workload", J.Str "front_door");
          ( "load",
            J.Obj
              [
                ("open_loop_rate_per_s", J.Num rate);
                ("open_loop_s", J.Num open_s);
                ("open_loop_share", J.Num open_share);
                ("closed_loop_window_per_connection", Report.int window);
                ("connections", Report.int connections);
                ("generator_threads", Report.int 1);
                ( "open_loop_p50_ms_by_quarter",
                  let n = t.replied.Samples.n in
                  J.List
                    (List.init 4 (fun k ->
                         let q = Samples.create () in
                         for i = k * n / 4 to ((k + 1) * n / 4) - 1 do
                           Samples.add q t.replied.Samples.data.(i)
                         done;
                         J.Num (1e3 *. Samples.quantile q 0.5))) );
              ] );
          ( "size",
            J.Obj
              [
                ("users_per_flight", Report.int users_per_flight);
                ("seats_per_flight", Report.int seats_per_flight);
                ("server_flights", Report.int server_flights);
                ("requests_per_flight", Report.int 11);
              ] );
          ("flush_policy", J.Str "file WAL, server group commit: sync Never plus one fsync per engine batch");
          ( "outcomes",
            J.Obj
              (List.map
                 (fun (loop, t) ->
                   ( loop,
                     J.Obj
                       [
                         ("committed", Report.int t.n_commit);
                         ("rejected", Report.int t.n_reject);
                         ("reads", Report.int t.n_reads);
                         ("checkins", Report.int t.n_checkins);
                       ] ))
                 [ ("open_loop", t); ("closed_loop", closed) ]) );
          ("setup_samples_s", J.List (List.map (fun x -> J.Num x) setup_samples));
          ("server", p.report);
          accept_d;
          reject_d;
          read_d;
          checkin_d;
          late_d;
        ];
    },
    trace_info )
