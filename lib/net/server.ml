(* The network front door (see server.mli for the loop shape and the
   backpressure/durability contracts).

   Ownership: one event-loop thread owns the listener, every session
   socket, the request queue, the [Qdb.t] and the store.  Other threads
   only read telemetry, call [stop] (which wakes the loop through a pipe
   and joins it) and [wait], so nothing here needs the engine to be
   thread-safe and no request ever changes threads. *)

module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Datalog_parser = Quantum.Datalog_parser
module Sql_parser = Quantum.Sql_parser
module Store = Relational.Store
module Wal = Relational.Wal
module Mclock = Obs.Mclock
module Inbox = Conn.Inbox

type config = {
  engine_config : Qdb.config;
  max_batch : int;
  session_buffer : int;
  engine_queue : int;
  max_payload : int;
}

let default_config =
  {
    engine_config = Qdb.default_config;
    max_batch = 64;
    session_buffer = 16;
    engine_queue = 256;
    max_payload = Frame.default_max_payload;
  }

type address =
  | Tcp of string * int
  | Unix_sock of string

let banner = "qdb/1"

(* Accepting pauses this long when the process runs out of descriptors
   or socket buffers: existing sessions close and return them. *)
let accept_pause_ns = 50_000_000L

(* A graceful stop stops waiting for a peer that will not read its last
   replies after this long. *)
let stop_grace_ns = 1_000_000_000L

type session = {
  fd : Unix.file_descr;
  inbox : Inbox.t;
  (* The window: decoded requests whose reply has not left the process. *)
  mutable inflight : int;
  mutable reading : bool; (* false after EOF, a protocol error or stop *)
  (* Decoding last stopped for want of room, not of bytes: the inbox may
     hold whole frames that no socket event will announce. *)
  mutable backlog : bool;
  mutable closed : bool;
  (* Encoded replies not yet taken by the socket, at offset 0. *)
  mutable out : Bytes.t;
  mutable out_len : int;
  mutable sent : int; (* bytes ever written *)
  (* Stream offset just past each slot-holding reply still unsent.  Only
     a session's terminal error frame holds no slot. *)
  slot_ends : int Queue.t;
}

type request = {
  rq_frame : Frame.t;
  rq_arrival : int64;
  rq_session : session;
}

type t = {
  cfg : config;
  store : Store.t;
  qdb : Qdb.t;
  gc : Group_commit.t;
  queue : request Queue.t; (* decoded, awaiting the engine: at most [engine_queue] *)
  listen_fd : Unix.file_descr;
  bound : address;
  wake_r : Unix.file_descr; (* [stop] writes a byte to [wake_w] *)
  wake_w : Unix.file_descr;
  mutable listening : bool;
  mutable accept_resume_ns : int64;
  mutable sessions : session list;
  mutable turns : int;
  mutable drain_deadline_ns : int64 option; (* set once a graceful stop began *)
  mutable loop : Thread.t option;
  stopping : bool Atomic.t;
  stop_mutex : Mutex.t; (* serializes [stop] *)
  mutable stopped : bool;
  mutable failure_exn : exn option;
  (* telemetry *)
  sessions_opened : int Atomic.t;
  sessions_closed : int Atomic.t;
  frames_in : int Atomic.t;
  frames_out : int Atomic.t;
  protocol_errors : int Atomic.t;
  queued_max : int Atomic.t;
  accept_lat : Obs.Histogram.t;
  reject_lat : Obs.Histogram.t;
  overload_lat : Obs.Histogram.t;
  request_lat : Obs.Histogram.t;
}

(* -- Sessions ----------------------------------------------------------------- *)

let open_session t fd =
  match
    Unix.set_nonblock fd;
    (* Each reply leaves when it is written: with Nagle on, a small
       reply waits for the ack of the previous one, which the peer
       delays until it sends its next request. *)
    (match t.bound with
     | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
     | Unix_sock _ -> ());
    (* [select] cannot watch a descriptor past FD_SETSIZE; probing it
       now refuses that one connection instead of failing the loop. *)
    ignore (Unix.select [ fd ] [] [] 0.)
  with
  | () ->
    let sess =
      {
        fd;
        inbox = Inbox.create ~max_payload:t.cfg.max_payload ();
        inflight = 0;
        reading = true;
        backlog = false;
        closed = false;
        out = Bytes.create 4096;
        out_len = 0;
        sent = 0;
        slot_ends = Queue.create ();
      }
    in
    t.sessions <- sess :: t.sessions;
    Atomic.incr t.sessions_opened
  | exception Unix.Unix_error _ -> (try Unix.close fd with Unix.Unix_error _ -> ())

let drop t sess =
  if not sess.closed then begin
    sess.closed <- true;
    sess.reading <- false;
    (try Unix.close sess.fd with Unix.Unix_error _ -> ());
    Atomic.incr t.sessions_closed
  end

let queue_reply t sess frame ~slot =
  if not sess.closed then begin
    let wire = Frame.encode frame in
    let n = String.length wire in
    if sess.out_len + n > Bytes.length sess.out then begin
      let grown = Bytes.create (max (2 * Bytes.length sess.out) (sess.out_len + n)) in
      Bytes.blit sess.out 0 grown 0 sess.out_len;
      sess.out <- grown
    end;
    Bytes.blit_string wire 0 sess.out sess.out_len n;
    sess.out_len <- sess.out_len + n;
    if slot then Queue.push (sess.sent + sess.out_len) sess.slot_ends;
    Atomic.incr t.frames_out
  end

(* One non-blocking write of everything queued.  A window slot is
   released once the last byte of its reply has left the process, so a
   stalled peer's backlog stays on its own connection. *)
let write_out t sess =
  match Unix.write sess.fd sess.out 0 sess.out_len with
  | n ->
    Bytes.blit sess.out n sess.out 0 (sess.out_len - n);
    sess.out_len <- sess.out_len - n;
    sess.sent <- sess.sent + n;
    while (not (Queue.is_empty sess.slot_ends)) && Queue.peek sess.slot_ends <= sess.sent do
      ignore (Queue.pop sess.slot_ends);
      sess.inflight <- sess.inflight - 1
    done
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t sess

(* A session ends when it will read no more and owes nothing. *)
let finished sess = (not sess.reading) && sess.inflight = 0 && sess.out_len = 0

(* The session's last frame: no slot, and nothing is decoded after it. *)
let refuse t sess msg =
  Atomic.incr t.protocol_errors;
  sess.reading <- false;
  queue_reply t sess (Frame.Error_msg msg) ~slot:false

let room t sess =
  sess.inflight < t.cfg.session_buffer && Queue.length t.queue < t.cfg.engine_queue

let enqueue t sess frame =
  Atomic.incr t.frames_in;
  if Frame.is_request frame then begin
    sess.inflight <- sess.inflight + 1;
    Queue.push { rq_frame = frame; rq_arrival = Mclock.now_ns (); rq_session = sess } t.queue;
    if Queue.length t.queue > Atomic.get t.queued_max then
      Atomic.set t.queued_max (Queue.length t.queue)
  end
  else refuse t sess ("unexpected response frame: " ^ Frame.to_string frame)

(* Decode while the session and the engine queue have room, reading the
   socket at most once when the inbox runs dry. *)
let pump t sess ~readable =
  let rec go can_read =
    if sess.reading then
      if not (room t sess) then sess.backlog <- true
      else
        match Inbox.pop sess.inbox with
        | Ok (Some frame) ->
          enqueue t sess frame;
          go can_read
        | Error msg -> refuse t sess ("protocol error: " ^ msg)
        | Ok None ->
          sess.backlog <- false;
          if can_read then
            match Inbox.fill sess.inbox (Unix.read sess.fd) with
            | 0 ->
              sess.reading <- false;
              if Inbox.buffered sess.inbox > 0 then refuse t sess "protocol error: eof inside a frame"
            | _ -> go false
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error _ -> drop t sess
  in
  go readable

(* -- Engine ----------------------------------------------------------------- *)

(* Per-request failures a hostile or confused client can cause come back
   as response frames; anything else means the engine (or its store) can
   no longer be trusted and kills the server like a process crash. *)
let run_request t (req : request) : Frame.t =
  let admit parse =
    match parse () with
    | exception Datalog_parser.Syntax_error msg -> Frame.Error_msg ("syntax error: " ^ msg)
    | exception Sql_parser.Syntax_error msg -> Frame.Error_msg ("syntax error: " ^ msg)
    | exception Rtxn.Ill_formed msg -> Frame.Error_msg ("ill-formed transaction: " ^ msg)
    | txn ->
      (match Qdb.submit t.qdb txn with
       | Qdb.Committed id -> Frame.Committed id
       | Qdb.Rejected reason -> Frame.Rejected reason
       | Qdb.Overloaded reason -> Frame.Overloaded reason)
  in
  let trigger = function
    | None -> Rtxn.On_demand
    | Some p -> Rtxn.On_partner p
  in
  match req.rq_frame with
  | Frame.Hello _ -> Frame.Hello_ok banner
  | Frame.Submit_datalog { label; partner; text } ->
    admit (fun () -> Datalog_parser.parse_txn ~label ~trigger:(trigger partner) text)
  | Frame.Submit_sql { label; partner = _; text } ->
    let schema_of name =
      Option.map Relational.Table.schema (Relational.Database.find_table (Qdb.db t.qdb) name)
    in
    admit (fun () -> Sql_parser.parse_txn ~label ~schema_of text)
  | Frame.Query text ->
    (match Datalog_parser.parse_query text with
     | exception Datalog_parser.Syntax_error msg -> Frame.Error_msg ("syntax error: " ^ msg)
     | query ->
       (match Qdb.read t.qdb query with
        | rows -> Frame.Rows (List.map Relational.Tuple.to_string rows)
        | exception Qdb.Engine_overloaded msg -> Frame.Overloaded msg))
  | Frame.Ground id ->
    (match Qdb.ground t.qdb id with
     | groundings -> Frame.Grounded (List.length groundings)
     | exception Qdb.Engine_overloaded msg -> Frame.Overloaded msg
     | exception Not_found -> Frame.Error_msg (Printf.sprintf "no pending transaction %d" id)
     | exception Invalid_argument msg -> Frame.Error_msg msg
     | exception Failure msg -> Frame.Error_msg msg)
  | Frame.Ground_all ->
    (match Qdb.ground_all t.qdb with
     | groundings -> Frame.Grounded (List.length groundings)
     | exception Qdb.Engine_overloaded msg -> Frame.Overloaded msg)
  | Frame.Ping payload -> Frame.Pong payload
  | frame -> Frame.Error_msg ("unexpected frame: " ^ Frame.to_string frame)

let observe_latency t resp dt =
  let hist =
    match resp with
    | Frame.Committed _ -> t.accept_lat
    | Frame.Rejected _ -> t.reject_lat
    | Frame.Overloaded _ -> t.overload_lat
    | _ -> t.request_lat
  in
  Obs.Histogram.observe hist dt

let process t (req : request) =
  let records_before = (Store.wal_stats t.store).Wal.records in
  let resp = run_request t req in
  let durable = (Store.wal_stats t.store).Wal.records > records_before in
  Group_commit.stage t.gc ~durable (fun () ->
      observe_latency t resp (Mclock.elapsed_s req.rq_arrival);
      queue_reply t req.rq_session resp ~slot:true)

(* Up to [max_batch] queued requests, then one group commit: the fsync
   happens before any of their replies is queued for writing. *)
let run_batch t =
  let rec take n =
    if n > 0 && not (Queue.is_empty t.queue) then begin
      process t (Queue.pop t.queue);
      take (n - 1)
    end
  in
  take t.cfg.max_batch;
  ignore (Group_commit.flush t.gc)

(* -- The loop ------------------------------------------------------------------ *)

let close_listener t =
  if t.listening then begin
    t.listening <- false;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let accept_all t =
  let rec go budget =
    if budget > 0 then
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        open_session t fd;
        go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                                   | Unix.ECONNABORTED | Unix.ECONNRESET), _, _) ->
        (* Nothing pending, or the half-open connection died first. *)
        ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
        (* Routine under a connection flood: the pending connection
           stays in the listen backlog while sessions return fds. *)
        t.accept_resume_ns <- Int64.add (Mclock.now_ns ()) accept_pause_ns
  in
  go 64

(* A dead engine (or listener) is a dead server: drop every connection
   without running the staged acks — exactly what a process crash after
   the last completed fsync would look like to clients. *)
let server_failed t exn =
  t.failure_exn <- Some exn;
  close_listener t;
  List.iter (drop t) t.sessions;
  t.sessions <- []

let select_timeout t ~now ~accepting =
  let until deadline = Int64.to_float (Int64.sub deadline now) /. 1e9 in
  if (not (Queue.is_empty t.queue))
     || List.exists (fun s -> s.reading && s.backlog && room t s) t.sessions
  then 0.
  else
    match t.drain_deadline_ns with
    | Some d -> Float.max 0. (until d)
    | None when t.listening && not accepting -> Float.max 0. (until t.accept_resume_ns)
    | None -> -1.

let turn t =
  let now = Mclock.now_ns () in
  let accepting = t.listening && now >= t.accept_resume_ns in
  let reads =
    List.filter_map (fun s -> if s.reading && room t s then Some s.fd else None) t.sessions
  in
  let reads = t.wake_r :: (if accepting then t.listen_fd :: reads else reads) in
  let writes = List.filter_map (fun s -> if s.out_len > 0 then Some s.fd else None) t.sessions in
  let ready =
    match Unix.select reads writes [] (select_timeout t ~now ~accepting) with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let ready_fds = Hashtbl.create 16 in
  List.iter (fun fd -> Hashtbl.replace ready_fds fd ()) ready;
  if Hashtbl.mem ready_fds t.wake_r then
    (try ignore (Unix.read t.wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ());
  let live = Array.of_list t.sessions in
  if accepting && Hashtbl.mem ready_fds t.listen_fd then accept_all t;
  (* Rotate who decodes first, so a small engine queue is shared. *)
  let n = Array.length live in
  for i = 0 to n - 1 do
    let s = live.((t.turns + i) mod n) in
    let readable = Hashtbl.mem ready_fds s.fd in
    if readable || s.backlog then pump t s ~readable
  done;
  t.turns <- t.turns + 1;
  if not (Queue.is_empty t.queue) then run_batch t;
  List.iter (fun s -> if s.out_len > 0 && not s.closed then write_out t s) t.sessions;
  List.iter (fun s -> if finished s then drop t s) t.sessions;
  t.sessions <- List.filter (fun s -> not s.closed) t.sessions

(* A graceful stop decodes nothing new but answers everything already
   decoded, then closes every session. *)
let drained t =
  match t.drain_deadline_ns with
  | None -> false
  | Some deadline ->
    (Queue.is_empty t.queue && List.for_all (fun s -> s.out_len = 0) t.sessions)
    || Mclock.now_ns () >= deadline

let run t =
  (try
     while t.failure_exn = None && not (drained t) do
       turn t;
       (* Checked after the turn, so [drained] sees the new state before
          the next [select] could wait out the grace period. *)
       if Atomic.get t.stopping && t.drain_deadline_ns = None then begin
         t.drain_deadline_ns <- Some (Int64.add (Mclock.now_ns ()) stop_grace_ns);
         close_listener t;
         List.iter (fun s -> s.reading <- false) t.sessions
       end
     done
   with exn -> server_failed t exn);
  close_listener t;
  List.iter (drop t) t.sessions;
  t.sessions <- []

(* -- Lifecycle -------------------------------------------------------------- *)

let bind_listener = function
  | Tcp (host, port) ->
    let addr = Conn.resolve host in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (try Unix.bind fd (Unix.ADDR_INET (addr, port))
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    Unix.listen fd 128;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
      | _ -> Tcp (host, port)
    in
    (fd, bound)
  | Unix_sock path as addr ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.bind fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    Unix.listen fd 128;
    (fd, addr)

let start ?(config = default_config) ~store address =
  let listen_fd, bound = bind_listener address in
  Unix.set_nonblock listen_fd;
  Conn.ignore_sigpipe ();
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* The group committer owns durability from here on: the loop decides
     when the WAL hits the disk, once per batch. *)
  Store.set_sync store Wal.Never;
  let qdb = Qdb.create ~config:config.engine_config store in
  let t =
    {
      cfg = config;
      store;
      qdb;
      gc = Group_commit.create ~sync:(fun () -> Store.sync store) ();
      queue = Queue.create ();
      listen_fd;
      bound;
      wake_r;
      wake_w;
      listening = true;
      accept_resume_ns = 0L;
      sessions = [];
      turns = 0;
      drain_deadline_ns = None;
      loop = None;
      stopping = Atomic.make false;
      stop_mutex = Mutex.create ();
      stopped = false;
      failure_exn = None;
      sessions_opened = Atomic.make 0;
      sessions_closed = Atomic.make 0;
      frames_in = Atomic.make 0;
      frames_out = Atomic.make 0;
      protocol_errors = Atomic.make 0;
      queued_max = Atomic.make 0;
      accept_lat = Obs.Histogram.create ();
      reject_lat = Obs.Histogram.create ();
      overload_lat = Obs.Histogram.create ();
      request_lat = Obs.Histogram.create ();
    }
  in
  t.loop <- Some (Thread.create run t);
  t

let address t = t.bound
let qdb t = t.qdb
let group_commit t = t.gc
let failure t = t.failure_exn

let wait t =
  match t.loop with
  | Some th -> Thread.join th
  | None -> ()

let stop t =
  Mutex.lock t.stop_mutex;
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (try ignore (Unix.write_substring t.wake_w "x" 0 1) with Unix.Unix_error _ -> ());
    wait t;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ t.wake_r; t.wake_w ];
    (match t.bound with
     | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Tcp _ -> ())
  end;
  Mutex.unlock t.stop_mutex

let registry t =
  let reg = Qdb.registry t.qdb in
  Obs.Registry.set_counter reg "net.sessions.opened" (Atomic.get t.sessions_opened);
  Obs.Registry.set_counter reg "net.sessions.closed" (Atomic.get t.sessions_closed);
  Obs.Registry.set_counter reg "net.frames.in" (Atomic.get t.frames_in);
  Obs.Registry.set_counter reg "net.frames.out" (Atomic.get t.frames_out);
  Obs.Registry.set_counter reg "net.protocol_errors" (Atomic.get t.protocol_errors);
  Obs.Registry.set_gauge reg "net.engine.queued_max" (float_of_int (Atomic.get t.queued_max));
  Obs.Registry.set_histogram reg "net.accept.latency" t.accept_lat;
  Obs.Registry.set_histogram reg "net.reject.latency" t.reject_lat;
  Obs.Registry.set_histogram reg "net.overload.latency" t.overload_lat;
  Obs.Registry.set_histogram reg "net.request.latency" t.request_lat;
  Obs.Registry.set_counter reg "net.group_commit.batches" (Group_commit.batches t.gc);
  Obs.Registry.set_counter reg "net.group_commit.acked" (Group_commit.acked_durable t.gc);
  Obs.Registry.set_gauge reg "net.group_commit.mean_batch_size" (Group_commit.mean_batch_size t.gc);
  Obs.Registry.set_histogram reg "net.group_commit.batch_size" (Group_commit.batch_size t.gc);
  reg
