(** Workload runner: the measurement loop behind Figures 5–9 and Tables
    1–2 — drives one generated operation stream against the quantum engine
    or the Intelligent Social baseline on identical substrates. *)

type engine =
  | Quantum_engine of Quantum.Qdb.config
  | Intelligent_social

type spec = {
  geometry : Flights.geometry;
  order : Travel.order;
  seed : int;
  read_fraction : float;  (** reads as a fraction of all operations *)
  pairs_per_flight : int;
}

val default_spec : spec
(** The Figure 5/6 setting: one flight, 34 rows (102 seats), 102 users. *)

type op =
  | Book of Travel.user
  | Read_seat of Travel.user

type outcome = {
  cumulative_ms : float array;
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

val build_ops : spec -> Prng.t -> op list * Travel.user list
(** The operation stream (bookings in arrival order with reads injected)
    and the users issuing bookings. *)

val run : engine -> spec -> outcome
(** Execute the stream; for the quantum engine, any transaction still
    pending at the end is grounded before coordination is measured. *)

type actor_report = {
  actors_requested : int;
  actors_live : int;  (** after the hardware clamp *)
  busy_s : float;  (** summed actor task time across live actors *)
  messages : int;
}

val run_actors :
  ?mailbox_capacity:int ->
  ?clamp:bool ->
  ?collect:(flight:int -> Relational.Database.t -> unit) ->
  actors:int ->
  engine ->
  spec ->
  outcome * actor_report
(** Figure-7 parallel execution: flights are independent partitions by
    construction, so each flight group gets a private store + engine,
    owned end-to-end (admission, grounding, WAL) by one long-lived actor
    domain, and the driver routes the global stream op by op through
    bounded mailboxes — no centralized queue wait.  Same stream and PRNG
    consumption as {!run}; per-owner FIFO preserves per-flight order, so
    admission outcomes and coordination match {!run} and are identical
    across actor counts.  [collect] is invoked on the calling thread, per
    flight in ascending order, with the group's final database.
    [cumulative_ms] is empty and [max_pending] is the per-group max.
    [clamp] (default true) limits spawned domains to the host's
    recommended parallelism; the report records requested vs live actors
    and their summed busy time. *)

val metrics_sink : Quantum.Metrics.t
(** Engine metrics merged across every quantum run in this process —
    snapshot it with {!Quantum.Metrics.snapshot} for telemetry export. *)

val reset_metrics_sink : unit -> unit
