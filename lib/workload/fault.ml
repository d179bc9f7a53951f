(* Deterministic fault injection for WAL backends.

   [wrap] interposes on a {!Relational.Wal.backend} and, once armed with
   a {!plan}, simulates storage failures at exact append offsets: clean
   process death, torn writes (a PRNG-chosen prefix of the final line),
   bit flips on the crashing append, and silent mid-log bit flips some
   appends before the crash.  All randomness comes from the supplied
   {!Prng.t}, so every fault schedule is reproducible from its seed —
   the property the crash-monkey harness and the recovery tests rely
   on.

   The wrapper starts transparent; [arm] switches the faults on.  That
   lets a test build its fixture (schema DDL, initial rows) through the
   same backend without risking a crash during setup. *)

module Wal = Relational.Wal

exception Crash
(* Simulated process death: the append (or segment swap) that raised it
   was the last thing the "process" did.  Recovery must proceed from the
   underlying backend alone. *)

type damage =
  | Clean (* nothing of the crashing append reaches the log *)
  | Torn (* a strict prefix of the crashing append is written *)
  | Flipped (* the crashing append is written whole with one bit flipped *)

let damage_to_string = function
  | Clean -> "clean"
  | Torn -> "torn"
  | Flipped -> "flipped"

type plan = {
  crash_after : int; (* crash on append number [crash_after] (0-based, post-arm) *)
  damage : damage; (* what the crashing append leaves behind *)
  flip_at : int option; (* additionally bit-flip append [n] silently, n < crash_after *)
}

type handle = {
  rng : Prng.t;
  mutable armed : plan option;
  mutable appends : int; (* appends observed since arming *)
  mutable crashed : bool;
}

let arm h plan =
  h.armed <- Some plan;
  h.appends <- 0;
  h.crashed <- false

let disarm h = h.armed <- None

(* Flip one PRNG-chosen bit of one PRNG-chosen byte. *)
let flip_one_bit rng line =
  if String.length line = 0 then line
  else begin
    let b = Bytes.of_string line in
    let pos = Prng.int rng (Bytes.length b) in
    let bit = Prng.int rng 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.to_string b
  end

let wrap rng (inner : Wal.backend) =
  let h = { rng; armed = None; appends = 0; crashed = false } in
  let crash () =
    h.crashed <- true;
    raise Crash
  in
  let append line =
    match h.armed with
    | None -> inner.Wal.append line
    | Some plan ->
      let n = h.appends in
      h.appends <- n + 1;
      if Some n = plan.flip_at then inner.Wal.append (flip_one_bit rng line)
      else if n >= plan.crash_after then begin
        (match plan.damage with
         | Clean -> ()
         | Torn ->
           (* A strict prefix — possibly empty, never the whole line. *)
           let k = Prng.int rng (max 1 (String.length line)) in
           inner.Wal.append (String.sub line 0 k)
         | Flipped -> inner.Wal.append (flip_one_bit rng line));
        crash ()
      end
      else inner.Wal.append line
  in
  let rewrite lines =
    (* Segment swaps (checkpoint compaction) are atomic rename: at a
       crash point the swap either fully happened or not at all —
       decided by the PRNG so both sides get exercised. *)
    match h.armed with
    | None -> inner.Wal.rewrite lines
    | Some plan ->
      let n = h.appends in
      h.appends <- n + 1;
      if n >= plan.crash_after then begin
        if Prng.bool rng then inner.Wal.rewrite lines;
        crash ()
      end
      else inner.Wal.rewrite lines
  in
  ( h,
    {
      inner with
      Wal.append;
      rewrite;
    } )

(* -- Volatile write buffer --------------------------------------------------

   Models the OS page cache under a [Never] sync policy: appends land in
   RAM and reach the durable inner backend only at [flush] — a crash
   loses exactly the unflushed suffix.  This is what makes the network
   front door's ack-after-fsync contract falsifiable: with a plain
   mem-backend every append would be instantly "durable" and an
   unacknowledged admission could never vanish.

   Once armed, the [crash_at_flush]-th flush (0-based, counted from
   [arm_flush]) kills the "process" mid-sync: [Clean] transfers nothing
   of the pending buffer, [Torn] transfers a strict prefix of its lines
   with the next line cut mid-line, [Flipped] transfers everything with
   one bit flipped in the final line.  Lines transferred by earlier
   flushes are never touched — damage is confined to the crashing sync,
   like a real power cut under an ordered page cache. *)

type flush_handle = {
  frng : Prng.t;
  mutable pending_lines : string list; (* newest first; volatile *)
  mutable flushes : int; (* flushes observed since arming *)
  mutable flush_plan : (int * damage) option;
  mutable flush_crashed : bool;
}

let arm_flush h ~crash_at_flush ~damage =
  h.flush_plan <- Some (crash_at_flush, damage);
  h.flushes <- 0;
  h.flush_crashed <- false

let write_buffered rng (inner : Wal.backend) =
  let h =
    { frng = rng; pending_lines = []; flushes = 0; flush_plan = None; flush_crashed = false }
  in
  let drain () =
    let lines = List.rev h.pending_lines in
    h.pending_lines <- [];
    lines
  in
  let transfer lines = List.iter inner.Wal.append lines in
  let sync_all () =
    transfer (drain ());
    inner.Wal.flush ()
  in
  let flush () =
    let n = h.flushes in
    h.flushes <- n + 1;
    match h.flush_plan with
    | Some (at, damage) when n >= at && not h.flush_crashed ->
      let lines = List.rev h.pending_lines in
      (match damage with
       | Clean -> ()
       | Torn ->
         (match lines with
          | [] -> ()
          | _ ->
            let k = Prng.int h.frng (List.length lines) in
            transfer (List.filteri (fun i _ -> i < k) lines);
            (match List.nth_opt lines k with
             | Some line when String.length line > 0 ->
               inner.Wal.append (String.sub line 0 (Prng.int h.frng (String.length line)))
             | _ -> ()))
       | Flipped ->
         (match List.rev lines with
          | [] -> ()
          | last :: before ->
            transfer (List.rev before);
            inner.Wal.append (flip_one_bit h.frng last)));
      inner.Wal.flush ();
      h.flush_crashed <- true;
      raise Crash
    | _ -> sync_all ()
  in
  ( h,
    {
      Wal.append = (fun line -> h.pending_lines <- line :: h.pending_lines);
      iter_lines =
        (fun f ->
          inner.Wal.iter_lines f;
          List.iter f (List.rev h.pending_lines));
      read_all = (fun () -> inner.Wal.read_all () @ List.rev h.pending_lines);
      truncate =
        (fun n ->
          sync_all ();
          inner.Wal.truncate n);
      rewrite =
        (fun lines ->
          h.pending_lines <- [];
          inner.Wal.rewrite lines);
      flush;
      close =
        (fun () ->
          (* Orderly process exit syncs; a crashed one already lost its
             buffer. *)
          if not h.flush_crashed then sync_all ();
          inner.Wal.close ());
      reset =
        (fun () ->
          h.pending_lines <- [];
          inner.Wal.reset ());
    } )

(* -- Engine-level fault injection ------------------------------------------

   Beyond storage, the chaos harness injects faults into the engine's
   per-partition refill and recheck jobs through [Qdb.set_fault_injector]:
   a job raising mid-flight during a cache refill or a blind-write
   recheck.  The decision for each job is a pure hash of (seed, kind,
   fan-out sequence number, job index) — no mutable PRNG state — so a
   schedule is identical whichever domain runs the engine, which is
   exactly what the bit-identical inline-vs-actor oracle requires. *)

exception Injected of string
(* A simulated job crash.  The engine must absorb it: refills are
   abandoned wholesale, write revalidations refuse conservatively. *)

type engine_plan = {
  chaos_seed : int;
  refill_rate : float; (* per-job probability a cache-refill job raises *)
  recheck_rate : float; (* per-job probability a write-recheck job raises *)
}

(* splitmix64-style finalizer over the packed decision coordinates. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let decision ~seed ~kind ~fanout ~job =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.of_int ((Hashtbl.hash kind * 0x1F1F1F) lxor (fanout * 8191) lxor job))
  in
  let bits = Int64.to_int (Int64.logand (mix64 z) 0xFFFFFL) in
  float_of_int bits /. 1048576.

let injector plan ~kind ~fanout ~job =
  let rate =
    match kind with
    | "refill" -> plan.refill_rate
    | "recheck" -> plan.recheck_rate
    | _ -> 0.
  in
  if rate > 0. && decision ~seed:plan.chaos_seed ~kind ~fanout ~job < rate then
    raise (Injected (Printf.sprintf "%s fan-out %d job %d" kind fanout job))
