(** Ring-buffered structured tracing for the engine.

    Process-global and off by default; when disabled, [span] and [instant]
    cost one flag test.  When enabled, events land in a fixed-capacity
    ring — wraparound overwrites the oldest events, so a trace is always
    bounded-memory no matter how long the engine runs.

    Every span carries a process-unique [id], the [parent] span that was
    current on its domain when it started, and the recording domain as
    [tid] — enough to reconstruct the causal tree even when solver work
    hops to actor domains ([capture]/[with_ctx] carry the parent across
    the hop). *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase =
  | Span  (** complete event: start timestamp plus duration *)
  | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int64;  (** monotonic start time *)
  dur_ns : int64;  (** 0 for instants *)
  tid : int;  (** recording domain — one Chrome track per domain *)
  id : int;  (** span id, unique per process; 0 for instants *)
  parent : int;  (** enclosing span id (possibly cross-domain); 0 = root *)
  args : (string * arg) list;
}

val default_capacity : int

val enable : ?capacity:int -> unit -> unit
(** Allocate a fresh ring (clearing any previous events) and turn tracing
    on.  [capacity] is clamped to at least 16. *)

val disable : unit -> unit
(** Stop recording; already-captured events remain readable. *)

val clear : unit -> unit

val on : unit -> bool
(** True when tracing is enabled — guard for instrumentation sites whose
    argument computation is not free. *)

val span : ?cat:string -> ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a complete event with its monotonic
    start time and duration.  [args] is evaluated after [f] returns, so
    sites can report results; the span is recorded even when [f] raises.
    While [f] runs, the span is the current span of this domain — nested
    spans and instants record it as their [parent].  When tracing is
    disabled this is exactly [f ()]. *)

val complete :
  ?cat:string -> ?args:(string * arg) list -> ?parent:int -> ts_ns:int64 -> dur_ns:int64 ->
  string -> unit
(** Record a span whose interval the caller measured itself (e.g. queue
    wait, timed from enqueue on one domain to dequeue on another).
    [parent] defaults to this domain's current span. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit

(** {1 Cross-domain span context} *)

type ctx
(** The current span of a domain, captured for propagation into a job
    that will run elsewhere. *)

val capture : unit -> ctx
(** Capture this domain's current span (cheap; [with_ctx] of the result
    is a no-op when tracing was off at capture time). *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with the captured span installed as this
    domain's current span, so spans recorded inside parent to it. *)

val current_span : unit -> int
(** Id of this domain's current span; 0 when not inside any span. *)

val events : unit -> event list
(** Chronological, oldest surviving event first. *)

val capacity : unit -> int
val recorded : unit -> int
(** Events recorded since [enable]/[clear], including overwritten ones. *)

val dropped : unit -> int
(** How many events the ring has overwritten. *)
