(* Structured trace layer: a fixed-capacity ring of span / instant events
   covering the resource-transaction lifecycle (submit → admission →
   pending → ground/collapse) plus the layers underneath it (solver
   search, solution cache, partitions, WAL).

   Tracing is process-global and off by default.  The fast path when
   disabled is a single flag test — instrumentation sites either call
   [span]/[instant] (whose first instruction is that test) or guard bigger
   argument computations behind [on ()].  When the ring wraps, the oldest
   events are overwritten; [dropped ()] reports how many.

   Causality: every span gets a process-unique id and records the id of
   the span that was current on its domain when it started.  [capture] /
   [with_ctx] carry that "current span" across an actor-mailbox hop, so
   an actor-side task is parented to the driver-side span that sent it,
   and each event's [tid] (the recording domain) puts it on the right
   track in the Chrome trace.

   The ring is shared mutable state, and engine work records events from
   actor domains, so the slow path ([record]/[events]) is
   mutex-protected; the [on ()] fast path stays a lock-free flag read,
   and the per-domain current-span cell is domain-local (DLS), touched
   without any lock. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase =
  | Span (* complete event: start timestamp + duration *)
  | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int64; (* monotonic start time *)
  dur_ns : int64; (* 0 for instants *)
  tid : int; (* recording domain — one Chrome track per domain *)
  id : int; (* span id, unique per process; 0 for instants *)
  parent : int; (* enclosing span id (possibly cross-domain); 0 = root *)
  args : (string * arg) list;
}

let default_capacity = 65536

let enabled = ref false
let ring : event array ref = ref [||]
let total = ref 0 (* events ever recorded since [enable]/[clear] *)

let on () = !enabled

(* Span ids start at 1 so 0 can mean "no span" in [parent] fields. *)
let next_id = Atomic.make 1

(* Current span id of each domain; jobs hopping domains overwrite it via
   [with_ctx] for their duration. *)
let current_key = Domain.DLS.new_key (fun () -> ref 0)

let domain_id () = (Domain.self () :> int)

let enable ?(capacity = default_capacity) () =
  let capacity = max 16 capacity in
  let dummy =
    { name = ""; cat = ""; ph = Instant; ts_ns = 0L; dur_ns = 0L; tid = 0; id = 0; parent = 0;
      args = [] }
  in
  ring := Array.make capacity dummy;
  total := 0;
  enabled := true

let disable () = enabled := false

let clear () = total := 0

let capacity () = Array.length !ring
let recorded () = !total
let dropped () = max 0 (!total - Array.length !ring)

let ring_mutex = Mutex.create ()

let record ev =
  Mutex.lock ring_mutex;
  let r = !ring in
  if Array.length r > 0 then begin
    r.(!total mod Array.length r) <- ev;
    incr total
  end;
  Mutex.unlock ring_mutex

let instant ?(cat = "engine") ?(args = []) name =
  if !enabled then
    record
      { name; cat; ph = Instant; ts_ns = Mclock.now_ns (); dur_ns = 0L; tid = domain_id ();
        id = 0; parent = !(Domain.DLS.get current_key); args }

(* [args] is a thunk evaluated after [f] returns, so sites can report
   results (and pay nothing when tracing is off).  The span is recorded
   even when [f] raises — a rejected admission still shows up. *)
let span ?(cat = "engine") ?(args = fun () -> []) name f =
  if not !enabled then f ()
  else begin
    let current = Domain.DLS.get current_key in
    let parent = !current in
    let id = Atomic.fetch_and_add next_id 1 in
    current := id;
    let t0 = Mclock.now_ns () in
    let finally () =
      current := parent;
      record
        { name; cat; ph = Span; ts_ns = t0; dur_ns = Mclock.elapsed_ns t0; tid = domain_id ();
          id; parent; args = args () }
    in
    Fun.protect ~finally f
  end

(* A span whose interval was measured by the caller (e.g. queue wait: the
   clock started on the enqueuing domain, the span is recorded by the
   worker that dequeued).  Gets an id like any span so children can link
   to it, but does not become the current span of this domain. *)
let complete ?(cat = "engine") ?(args = []) ?parent ~ts_ns ~dur_ns name =
  if !enabled then begin
    let parent =
      match parent with
      | Some p -> p
      | None -> !(Domain.DLS.get current_key)
    in
    record
      { name; cat; ph = Span; ts_ns; dur_ns; tid = domain_id ();
        id = Atomic.fetch_and_add next_id 1; parent; args }
  end

(* -- Cross-domain span context ---------------------------------------------- *)

(* A captured ctx is just the capturing domain's current span id; [None]
   when tracing is off, so disabled runs don't even allocate. *)
type ctx = int option

let capture () = if !enabled then Some !(Domain.DLS.get current_key) else None

let with_ctx ctx f =
  match ctx with
  | None -> f ()
  | Some span_id ->
    let current = Domain.DLS.get current_key in
    let saved = !current in
    current := span_id;
    Fun.protect ~finally:(fun () -> current := saved) f

let current_span () = !(Domain.DLS.get current_key)

(* Chronological event list, oldest surviving event first. *)
let events () =
  Mutex.lock ring_mutex;
  let r = !ring in
  let cap = Array.length r in
  let n = min !total cap in
  let evs = List.init n (fun i -> r.((!total - n + i) mod cap)) in
  Mutex.unlock ring_mutex;
  evs
