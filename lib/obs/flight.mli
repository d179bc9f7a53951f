(** Per-admission flight recorder + process-wide phase accounting.

    Off by default (one flag test per entry point when disabled); never
    changes engine behaviour.  [time] attributes exclusive wall time to a
    pipeline phase, both into process-global totals and — while an
    admission is open on the same domain — into that admission's record.
    Records land in a fixed-size ring; admissions slower than the
    configured threshold also dump their record plus the trace events of
    their window. *)

type phase =
  | Compose  (** delta/body composition *)
  | Cache  (** witness-extension attempts in the solution cache *)
  | Solve  (** solver search: admission, refill, recheck, ground *)
  | Wal  (** store applies: pending-table inserts, grounding batches *)
  | Ground  (** grounding orchestration around its solves and WAL writes *)
  | Freeze  (** snapshotting partition bodies for cache-refill jobs *)
  | Queue
      (** queue wait: enqueue to dequeue.  Nothing produces it since the
          domain pool was retired; actor mailbox wait is not recorded
          here yet. *)
  | Compute  (** actor task execution not otherwise attributed *)
  | Merge  (** result recombination on the driver *)
  | Install  (** installing refill/recheck results into caches *)
  | Coordination  (** refill/recheck rounds: planning and per-partition jobs *)
  | Governor  (** admission-budget ladder: retries, backoff, degradation *)

val phase_name : phase -> string
val all_phases : phase list

type record = {
  seq : int;  (** admission order, monotonically increasing *)
  txn_id : int;
  label : string;
  outcome : string;  (** "committed" / "rejected" / "exception" *)
  total_ns : int;
  phase_ns : int array;  (** per-phase exclusive self time; see [record_phase_ns] *)
  solver_nodes : int;
  solver_candidates : int;
  chunks_reused : int;  (** composed chunks the delta path did not rebuild *)
}

val record_phase_ns : record -> phase -> int

val enable : ?capacity:int -> ?slow_threshold_ns:int64 -> unit -> unit
(** Reset all totals/records and start recording.  [capacity] is the
    record ring size (clamped to ≥ 16); admissions taking at least
    [slow_threshold_ns] (default: never) dump record + trace window. *)

val disable : unit -> unit
val clear : unit -> unit
val on : unit -> bool

val time : phase -> (unit -> 'a) -> 'a
(** Run [f], attributing its {e exclusive} wall time (elapsed minus time
    claimed by nested [time]/[add_ns] calls) to [phase].  Identity when
    disabled. *)

val add_ns : phase -> int64 -> unit
(** Attribute an externally measured interval (e.g. queue wait clocked
    from another domain).  Counts as nested time of the current frame. *)

val totals : unit -> (phase * int) list
(** Process-wide per-phase totals, ns, in [all_phases] order. *)

val total_attributed_ns : unit -> int

(** {1 Per-admission records} *)

val begin_admission : txn_id:int -> label:string -> unit
(** Open an admission on this domain; phase time measured here is charged
    to it until [end_admission].  Nested opens are ignored. *)

val note_chunks_reused : int -> unit

val end_admission : outcome:string -> solver_nodes:int -> solver_candidates:int -> unit
(** Close the open admission and push its record into the ring. *)

val records : unit -> record list
(** Surviving records, oldest first. *)

val top_slow : int -> record list
(** The [n] slowest surviving records, slowest first (stable on ties). *)

val slow_dumps : unit -> (record * Trace.event list) list
(** Records that crossed the slow threshold, each with the trace events
    of its window (empty when tracing was off); capped at 8 per run. *)

val capacity : unit -> int
val recorded : unit -> int
(** Admissions recorded since [enable]/[clear], including overwritten. *)

val dropped : unit -> int
