(** Shared-nothing partition actors.

    One long-lived domain owns each group of partition state end-to-end:
    requests are routed by an integer key to the owning actor, which
    runs them against group state only it ever touches.  No locks guard
    the groups — ownership is the synchronization.  Cross-group work is
    the explicit exception, via the two-phase [coordinate] protocol.

    The runtime clamps the number of spawned domains to the host's
    recommended domain count by default: actor domains beyond the
    hardware's parallelism can only add stop-the-world GC pressure, so a
    4-actor runtime on a 1-core host runs as one actor multiplexing all
    groups.  [requested] and [live] expose both numbers so benchmarks
    can report the clamp honestly.  A live count of 1 spawns no domain
    at all: messages run inline on the caller, making the sequential
    configuration pay nothing — and making "1 actor" and "N actors"
    share one code path for the outcome-identity oracle.

    One driver thread posts, calls, drains and shuts down; actor tasks
    must not touch the runtime themselves (except through the group
    state handed to them).

    While tracing is on ({!Obs.Trace.on}), a task sent to an actor
    domain ([post], [call], [coordinate]) runs under the sender's
    current span ({!Obs.Trace.capture} / {!Obs.Trace.with_ctx}), so the
    spans it records parent to the driver's span across the hop. *)

type 'g t

val create :
  ?mailbox_capacity:int ->
  ?clamp:bool ->
  ?on_batch_end:('g -> unit) ->
  actors:int ->
  make:(int -> 'g) ->
  unit ->
  'g t
(** [create ~actors ~make ()] starts a runtime of [actors] actors
    (clamped to at least 1).  [make key] builds the state of group
    [key]; it runs on the owning actor's domain the first time a
    message for [key] arrives, so group state is born shared-nothing.
    [clamp] (default [true]) limits spawned domains to
    [Domain.recommended_domain_count ()]; [mailbox_capacity] (default
    64) bounds each actor's mailbox — a full mailbox blocks the sender,
    which is the runtime's backpressure.

    [on_batch_end] is the per-actor group-commit boundary: it runs on
    the owning actor's domain over each of its groups whenever the
    actor's mailbox runs dry, before a [drain] barrier answers, and at
    shutdown — so a run of back-to-back messages forms one batch (e.g.
    one WAL sync under [Relational.Wal.Never]) instead of paying
    per-message durability.  With a single live actor every task is its
    own batch, matching the [Every_batch] cost that configuration
    always paid.  Hook time counts as actor busy time; a hook exception
    is stored and re-raised like a posted task's. *)

val requested : _ t -> int
(** The actor count asked for at [create]. *)

val live : _ t -> int
(** The actor count actually running after the clamp; routing uses
    this, so groups multiplex onto live actors. *)

val owner : _ t -> key:int -> int
(** The live actor index owning group [key] — a pure function of
    [key] and [live t], so routing is deterministic. *)

val post : 'g t -> key:int -> ('g -> unit) -> unit
(** Fire-and-forget: enqueue a task on the owner of [key].  Blocks
    while the owner's mailbox is full.  If a posted task raises, the
    first exception (lowest actor index, then arrival order) is
    re-raised at the next [drain] or [shutdown]. *)

val call : 'g t -> key:int -> ('g -> 'a) -> 'a
(** Round-trip: run the task on the owner of [key] and return its
    result, re-raising its exception in the caller.  FIFO with [post]:
    all earlier posts to the same owner complete first. *)

val drain : 'g t -> unit
(** Wait until every message posted so far has been processed and all
    actors are idle; then re-raise the first stored [post] exception,
    if any.  After [drain] returns (normally), the driver may read
    group state directly — every actor is parked on its empty mailbox
    and the sentinel round-trip ordered the reads after the writes. *)

val group : 'g t -> key:int -> 'g option
(** The state of group [key], or [None] if no message ever reached it.
    Driver-side; only safe after [drain] or [shutdown]. *)

type stats = {
  busy_ns : int;  (** summed wall time spent running tasks *)
  messages : int;  (** tasks processed, sentinels excluded *)
}

val stats : _ t -> stats array
(** Per-live-actor counters.  Only stable after [drain]. *)

val coordinate :
  'g t ->
  keys:int list ->
  prepare:(int -> 'g -> ('p, 'e) result) ->
  commit:(int -> 'g -> 'p -> unit) ->
  abort:(int -> 'g -> 'p -> unit) ->
  (unit, 'e) result
(** Two-phase cross-group transaction over [keys] (deduplicated).  When
    one actor owns every key, the whole protocol collapses to a local
    run on that actor — the common case under routing by partition.
    Otherwise each owning actor prepares its keys in order and votes;
    yes-voters freeze (their mailbox stops draining) until the
    coordinator — the calling driver thread, never an actor — collects
    every vote and broadcasts commit (all yes) or abort.  A participant
    whose own prepare fails aborts its earlier prepares immediately and
    votes no.  Returns the lowest-owner first error on abort.
    Coordinations are serialized runtime-wide, so two of them can never
    freeze actors in opposite orders. *)

val shutdown : _ t -> unit
(** Drain, stop and join every actor domain.  Re-raises like [drain].
    The runtime must not be used afterwards; idempotent otherwise. *)
