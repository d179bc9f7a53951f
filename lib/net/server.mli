(** The network front door: a socket server over one engine.

    Thread shape: one event-loop thread owns the listener, every
    session socket, the request queue and the [Quantum.Qdb.t]; the
    thread count does not grow with the number of sessions.  Each turn
    of the loop waits in [Unix.select] on the listener, every session
    with window room and every session with unsent replies; reads what
    is ready without blocking and decodes it ({!Conn.Inbox}); runs up
    to [max_batch] decoded requests through the engine under one
    {!Group_commit} fsync, which happens before any of their replies is
    queued; then makes one non-blocking write per session of everything
    it owes.  Accepted TCP sockets set [TCP_NODELAY], so a reply leaves
    in the turn that produced it instead of waiting behind the peer's
    delayed ack.

    Backpressure is layered: each session holds at most
    [session_buffer] decoded requests whose reply has not yet left the
    process (including [Hello]); a session at that bound is not read,
    so a flooding or stalled client stalls only itself.  At most
    [engine_queue] decoded requests wait for the engine across all
    sessions; while the queue is full no session is read.  A graceful
    {!stop} answers every request already decoded; a failed engine
    drops every connection without sending the acks it had staged. *)

type config = {
  engine_config : Quantum.Qdb.config;
  max_batch : int;  (** group-commit batch cap per engine drain *)
  session_buffer : int;  (** per-session in-flight (unacked) request cap *)
  engine_queue : int;  (** decoded requests awaiting the engine, all sessions *)
  max_payload : int;  (** per-frame byte bound, see {!Frame.decode} *)
}

val default_config : config
(** [engine_config = Quantum.Qdb.default_config],
    [max_batch = 64], [session_buffer = 16], [engine_queue = 256],
    [max_payload = Frame.default_max_payload]. *)

type address =
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)
  | Unix_sock of string  (** filesystem path *)

type t

val start : ?config:config -> store:Relational.Store.t -> address -> t
(** Bind, listen and serve.  The server takes ownership of [store]: it
    switches the WAL sync policy to [Never] and issues the fsyncs
    itself at group-commit boundaries.  @raise Unix.Unix_error when the
    address cannot be bound. *)

val address : t -> address
(** The bound address — with the real port when [Tcp (_, 0)] was
    given. *)

val qdb : t -> Quantum.Qdb.t

val registry : t -> Obs.Registry.t
(** Engine registry plus [net.*] counters and latency histograms
    ([net.accept.latency], [net.reject.latency], [net.request.latency],
    [net.group_commit.*], session/frame counters, and the
    [net.engine.queued_max] gauge: the most decoded requests ever
    waiting for the engine at once). *)

val group_commit : t -> Group_commit.t

val failure : t -> exn option
(** Set when the loop died on an unrecoverable exception (an
    injected crash, [Quantum.Qdb.Inconsistent]); the server is torn down as if
    the process were lost: connections drop, nothing unsynced was ever
    acknowledged. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting and reading, let the engine run
    and flush every decoded request, write their replies (waiting at
    most a second for a peer that does not read), then close every
    session.  Idempotent; safe after an engine failure (joins what
    remains). *)

val wait : t -> unit
(** Block until the loop thread exits (a {!stop} from another thread,
    or an engine failure). *)
