(* Shared-nothing partition actors: one long-lived domain per live
   actor, each owning the state of every group routed to it.  The
   mailbox (Par.Mailbox) is the only thing two domains ever share; group
   state is created on the owning actor's domain and never leaves it, so
   the hot path needs no locks at all.

   Clamping is the multicore honesty rule: spawning more actor domains
   than the host's recommended parallelism cannot add throughput, only
   stop-the-world GC pressure (the exact pathology the retired
   pool-sharded sweep measured), so [create] multiplexes groups onto at
   most [Domain.recommended_domain_count ()] domains unless told
   otherwise.
   A single live actor runs inline on the caller — no domain, no
   mailbox hop — which keeps the 1-domain configuration cost-free and
   shares its code path with the N-domain one. *)

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

type 'a ivar = {
  ivm : Mutex.t;
  ivc : Condition.t;
  mutable cell : 'a option;
}

let ivar () = { ivm = Mutex.create (); ivc = Condition.create (); cell = None }

let fill iv v =
  Mutex.lock iv.ivm;
  iv.cell <- Some v;
  Condition.broadcast iv.ivc;
  Mutex.unlock iv.ivm

let await iv =
  Mutex.lock iv.ivm;
  while iv.cell = None do
    Condition.wait iv.ivc iv.ivm
  done;
  let v = Option.get iv.cell in
  Mutex.unlock iv.ivm;
  v

(* A message either carries work (handed a resolver that finds-or-makes
   group state on this actor) or is a drain barrier: by mailbox FIFO,
   answering the barrier proves every earlier message completed. *)
type 'g msg =
  | Work of (((int -> 'g) -> unit)[@warning "-27"])
  | Barrier of unit ivar

type 'g actor = {
  idx : int;
  mbox : 'g msg Par.Mailbox.t;
  groups : (int, 'g) Hashtbl.t;
  mutable busy_ns : int64;
  mutable messages : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

type 'g t = {
  requested : int;
  acts : 'g actor array;
  make : int -> 'g;
  on_batch_end : ('g -> unit) option;
  mutable domains : unit Domain.t list;
  coord : Mutex.t; (* serializes multi-owner coordinations *)
  mutable stopped : bool;
}

type stats = { busy_ns : int; messages : int }

let requested t = t.requested
let live t = Array.length t.acts
let owner t ~key = ((key mod live t) + live t) mod live t

let resolver t a key =
  match Hashtbl.find_opt a.groups key with
  | Some g -> g
  | None ->
    let g = t.make key in
    Hashtbl.add a.groups key g;
    g

(* Run one unit of work on (conceptually) actor [a], timing it as actor
   busy time and folding it into the flight recorder's Compute phase so
   per-phase attribution sums to busy time, not to an inflated multiple
   of wall clock.  Exceptions are the caller's problem: [post] wraps the
   task to store them, [call] to ship them back. *)
let run_work t (a : _ actor) f =
  let t0 = Obs.Mclock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      a.busy_ns <- Int64.add a.busy_ns (Obs.Mclock.elapsed_ns t0);
      a.messages <- a.messages + 1)
    (fun () -> Obs.Flight.time Obs.Flight.Compute (fun () -> f (resolver t a)))

let store_failure a f resolve =
  try f resolve
  with e ->
    if a.failed = None then a.failed <- Some (e, Printexc.get_raw_backtrace ())

(* The group-commit boundary: run the batch-end hook over every group
   this actor owns.  Counted as busy time (the hook is real actor work —
   typically one WAL sync covering the whole drained batch); failures
   park in [failed] like any posted task's. *)
let batch_end t (a : _ actor) =
  match t.on_batch_end with
  | None -> ()
  | Some hook ->
    if Hashtbl.length a.groups > 0 then begin
      let t0 = Obs.Mclock.now_ns () in
      Fun.protect
        ~finally:(fun () -> a.busy_ns <- Int64.add a.busy_ns (Obs.Mclock.elapsed_ns t0))
        (fun () ->
          try Hashtbl.iter (fun _ g -> hook g) a.groups
          with e ->
            if a.failed = None then a.failed <- Some (e, Printexc.get_raw_backtrace ()))
    end

let rec actor_loop t a =
  match Par.Mailbox.recv a.mbox with
  | None -> batch_end t a (* closed and drained: final boundary, then shutdown *)
  | Some (Work f) ->
    run_work t a f;
    (* Mailbox ran dry: everything admitted since the last boundary is
       one batch — exactly when the front door's commit queue would
       sync.  Back-to-back arrivals keep coalescing instead. *)
    if Par.Mailbox.length a.mbox = 0 then batch_end t a;
    actor_loop t a
  | Some (Barrier iv) ->
    (* Durability before visibility: the barrier answers only after the
       open batch hit the hook, so [drain]-then-read sees synced state. *)
    batch_end t a;
    fill iv ();
    actor_loop t a

let create ?(mailbox_capacity = 64) ?(clamp = true) ?on_batch_end ~actors ~make () =
  let requested = max 1 actors in
  let hw = max 1 (Domain.recommended_domain_count ()) in
  let n = if clamp then min requested hw else requested in
  let acts =
    Array.init n (fun idx ->
        {
          idx;
          mbox = Par.Mailbox.create ~capacity:mailbox_capacity ();
          groups = Hashtbl.create 16;
          busy_ns = 0L;
          messages = 0;
          failed = None;
        })
  in
  let t =
    { requested; acts; make; on_batch_end; domains = []; coord = Mutex.create ();
      stopped = false }
  in
  if n > 1 then
    t.domains <-
      Array.to_list (Array.map (fun a -> Domain.spawn (fun () -> actor_loop t a)) acts);
  t

let inline_mode t = t.domains = [] (* live = 1: run on the caller *)

let check_running t =
  if t.stopped then invalid_arg "Actor.Runtime: runtime is shut down"

(* A task crossing to an actor domain carries the sender's current span,
   so spans it records parent to the span that sent it.  Captured only
   while tracing is on: otherwise the task is sent as is. *)
let with_sender_ctx f =
  if Obs.Trace.on () then begin
    let ctx = Obs.Trace.capture () in
    fun resolve -> Obs.Trace.with_ctx ctx (fun () -> f resolve)
  end
  else f

(* Ship work to an actor by index.  Inline mode executes immediately on
   the caller's domain — same [run_work] instrumentation, no hop. *)
let dispatch t idx f =
  check_running t;
  let a = t.acts.(idx) in
  if inline_mode t then begin
    run_work t a (store_failure a f);
    (* Inline mode has no mailbox to run dry: every task is its own
       batch, which is exactly the [Every_batch] cost the 1-domain
       configuration always paid. *)
    batch_end t a
  end
  else if not (Par.Mailbox.send a.mbox (Work (store_failure a (with_sender_ctx f)))) then
    invalid_arg "Actor.Runtime: mailbox closed"

let post t ~key f = dispatch t (owner t ~key) (fun resolve -> f (resolve key))

(* Round-trip on a given actor with full group-resolver access (the
   building block for [call] and single-owner coordinations). *)
let call_on t idx f =
  check_running t;
  let a = t.acts.(idx) in
  let body resolve = try Value (f resolve) with e -> Raised (e, Printexc.get_raw_backtrace ()) in
  let result =
    if inline_mode t then begin
      let out = ref None in
      run_work t a (fun resolve -> out := Some (body resolve));
      batch_end t a;
      Option.get !out
    end
    else begin
      let iv = ivar () in
      let work = with_sender_ctx (fun resolve -> fill iv (body resolve)) in
      if not (Par.Mailbox.send a.mbox (Work work)) then
        invalid_arg "Actor.Runtime: mailbox closed";
      await iv
    end
  in
  match result with
  | Value v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt

let call t ~key f = call_on t (owner t ~key) (fun resolve -> f (resolve key))

let reraise_first_failure t =
  Array.iter
    (fun a ->
      match a.failed with
      | Some (e, bt) ->
        a.failed <- None;
        Printexc.raise_with_backtrace e bt
      | None -> ())
    t.acts

let drain t =
  check_running t;
  if not (inline_mode t) then begin
    (* Barriers fan out first, then all are awaited: actors quiesce in
       parallel instead of one after the other. *)
    let barriers =
      Array.map
        (fun a ->
          let iv = ivar () in
          if Par.Mailbox.send a.mbox (Barrier iv) then Some iv else None)
        t.acts
    in
    Array.iter (function Some iv -> await iv | None -> ()) barriers
  end;
  reraise_first_failure t

let group t ~key =
  let a = t.acts.(owner t ~key) in
  Hashtbl.find_opt a.groups key

let stats t =
  Array.map
    (fun (a : _ actor) -> { busy_ns = Int64.to_int a.busy_ns; messages = a.messages })
    t.acts

let shutdown t =
  if not t.stopped then begin
    (try drain t
     with e ->
       (* Still stop the domains before letting the failure out. *)
       t.stopped <- true;
       Array.iter (fun a -> Par.Mailbox.close a.mbox) t.acts;
       List.iter Domain.join t.domains;
       t.domains <- [];
       raise e);
    t.stopped <- true;
    Array.iter (fun a -> Par.Mailbox.close a.mbox) t.acts;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* -- Two-phase cross-group coordination ------------------------------------ *)

let dedup keys =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    keys

type 'e decision = Commit | Abort of 'e

let coordinate t ~keys ~prepare ~commit ~abort =
  check_running t;
  let keys = dedup keys in
  (* Keys grouped by owning actor, preserving key order within each. *)
  let per_owner = Array.make (live t) [] in
  List.iter (fun k -> per_owner.(owner t ~key:k) <- k :: per_owner.(owner t ~key:k)) keys;
  let per_owner = Array.map List.rev per_owner in
  let owners =
    Array.to_list per_owner
    |> List.mapi (fun i ks -> (i, ks))
    |> List.filter (fun (_, ks) -> ks <> [])
  in
  (* Local run of prepare-all / commit-or-abort over one actor's keys;
     on a prepare failure the actor rolls back its own prepares at once
     (it needs no one's permission to abort). *)
  let local resolve ks =
    let rec go prepared = function
      | [] ->
        List.iter (fun (k, p) -> commit k (resolve k) p) (List.rev prepared);
        Ok ()
      | k :: rest -> (
        match prepare k (resolve k) with
        | Ok p -> go ((k, p) :: prepared) rest
        | Error e ->
          List.iter (fun (k, p) -> abort k (resolve k) p) (List.rev prepared);
          Error e)
    in
    go [] ks
  in
  match owners with
  | [] -> Ok ()
  | [ (o, ks) ] ->
    (* Single-owner fast path: the whole transaction is local to the
       owning actor — no votes, no freeze. *)
    call_on t o (fun resolve -> local resolve ks)
  | owners ->
    (* The exception path.  The caller (driver thread) is the
       coordinator; each owning actor prepares, votes, then freezes —
       stops draining its mailbox — until the decision arrives. *)
    Mutex.lock t.coord;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.coord)
      (fun () ->
        let n = List.length owners in
        let m = Mutex.create () in
        let c = Condition.create () in
        let votes = Array.make n None in (* per participant: Ok prepared-count | Error e *)
        let voted = ref 0 in
        let decision = ref None in
        let acked = ref 0 in
        List.iteri
          (fun i (o, ks) ->
            dispatch t o (fun resolve ->
                let prepared = ref [] in
                let err = ref None in
                List.iter
                  (fun k ->
                    if !err = None then
                      match prepare k (resolve k) with
                      | Ok p -> prepared := (k, p) :: !prepared
                      | Error e -> err := Some e)
                  ks;
                (match !err with
                 | Some _ ->
                   (* Vote no: roll back own prepares immediately. *)
                   List.iter (fun (k, p) -> abort k (resolve k) p) (List.rev !prepared);
                   prepared := []
                 | None -> ());
                Mutex.lock m;
                votes.(i) <- Some !err;
                incr voted;
                Condition.broadcast c;
                (* Freeze window: hold prepared state until the verdict. *)
                while !decision = None do
                  Condition.wait c m
                done;
                let d = Option.get !decision in
                Mutex.unlock m;
                (match d with
                 | Commit -> List.iter (fun (k, p) -> commit k (resolve k) p) (List.rev !prepared)
                 | Abort _ -> List.iter (fun (k, p) -> abort k (resolve k) p) (List.rev !prepared));
                Mutex.lock m;
                incr acked;
                Condition.broadcast c;
                Mutex.unlock m))
          owners;
        Mutex.lock m;
        while !voted < n do
          Condition.wait c m
        done;
        (* First error by owner order decides (and names) the abort. *)
        let verdict =
          Array.to_list votes
          |> List.find_map (function Some (Some e) -> Some e | _ -> None)
          |> function
          | Some e -> Abort e
          | None -> Commit
        in
        decision := Some verdict;
        Condition.broadcast c;
        while !acked < n do
          Condition.wait c m
        done;
        Mutex.unlock m;
        match verdict with Commit -> Ok () | Abort e -> Error e)
