(** Open-loop load generator and latency recording for the network
    front door.

    Arrivals are scheduled on an absolute clock at a target rate —
    requests are fired whether or not earlier responses came back, so
    measured latency includes every queueing effect (the coordinated
    omission an ask-then-wait loop would hide).  Each session is one
    connection driving its own band of small flights (8 users, 3 seats
    each — shallow pending sets keep admission cost flat, so the bench
    measures the front door, not the solver's deep-k regime); a sender
    thread follows the arrival schedule while a receiver thread matches
    the FIFO responses against their send timestamps.

    {!bench} runs server and clients in one process over a loopback
    socket on a file-backed WAL (real fsyncs, so group commit has
    something to amortise), twice with the same seed: admission
    outcomes must be identical run to run ([deterministic]), and the
    recording keeps the second (warm) run.  {!load} drives an external
    server and only reports the client-side view. *)

type spec = {
  sessions : int;  (** concurrent connections; a band of flights each *)
  requests_per_session : int;
  target_hz : float;  (** per-session arrival rate *)
  seed : int;
}

val default_spec : spec
(** 4 sessions x 400 requests at 800 Hz each, seed 11 — past the
    engine's sustained rate, so group-commit batches actually form. *)

val geometry_for : sessions:int -> requests_per_session:int -> Workload.Flights.geometry
(** The store geometry a given load shape books against — [qdb_cli
    serve] uses this to build a store that [qdb_cli load] with the same
    shape can drive. *)

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
  achieved_hz : float;  (** all sessions together *)
  accept : split;  (** latency of admissions acked [Committed] *)
  reject : split;  (** latency of [Rejected] verdicts *)
  batches : int;  (** group-commit batches that synced *)
  acked_durable : int;  (** admissions acked across all batches *)
  mean_batch_size : float;  (** acked_durable / batches *)
  wal_syncs : int;
  deterministic : bool;  (** same-seed rerun had identical outcomes *)
}

val bench : ?spec:spec -> ?wal_path:string -> unit -> recording
(** In-process loopback bench.  [wal_path] (default
    [results/server_bench.wal]) is created fresh for each run and
    removed afterwards. *)

val print : recording -> unit

val write : ?path:string -> recording -> string
(** Write the recording as [qdb.bench.server/v1] JSON (default
    [results/BENCH_server.json]); returns the path. *)

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

val load :
  host:string -> port:int -> sessions:int -> requests_per_session:int ->
  target_hz:float -> seed:int -> load_stats
(** Drive an already-running server (started with [qdb_cli serve]) with
    the same open-loop schedule; sessions book into the flight bands of
    {!geometry_for}, so point it at a server whose store was built for
    the same [sessions] x [requests_per_session] shape. *)

val print_load : load_stats -> unit
