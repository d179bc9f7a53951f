(** Deterministic, PRNG-driven fault injection for WAL backends.

    Wraps any {!Relational.Wal.backend} and, once armed, simulates
    storage failure at an exact append offset: clean process death, a
    torn write (a strict prefix of the final line), a bit-flipped final
    append, and optionally a silent mid-log bit flip some appends before
    the crash.  All randomness comes from the supplied {!Prng.t}, so
    every fault schedule replays identically from its seed. *)

exception Crash
(** Simulated process death.  The engine that raised it must be
    abandoned; recovery proceeds from the underlying backend alone. *)

type damage =
  | Clean  (** nothing of the crashing append reaches the log *)
  | Torn  (** a strict prefix of the crashing append is written *)
  | Flipped  (** the crashing append is written whole with one bit flipped *)

val damage_to_string : damage -> string

type plan = {
  crash_after : int;
      (** crash on append number [crash_after] (0-based, counted from
          {!arm}) *)
  damage : damage;
  flip_at : int option;
      (** additionally bit-flip append [n] silently, [n < crash_after] —
          corruption in the middle of the log, discovered only at
          replay *)
}

type handle = {
  rng : Prng.t;
  mutable armed : plan option;
  mutable appends : int;
  mutable crashed : bool;
}

val arm : handle -> plan -> unit
(** Switch faults on; append counting starts at 0. *)

val disarm : handle -> unit

val wrap : Prng.t -> Relational.Wal.backend -> handle * Relational.Wal.backend
(** The wrapped backend is transparent until {!arm}.  Checkpoint segment
    swaps ([rewrite]) count as one append and, at the crash point, either
    fully happen or not at all (atomic rename), PRNG-decided. *)

(** {1 Volatile write buffer}

    The OS page cache under a [Never] sync policy: appends stay in RAM
    until [flush] transfers them to the durable inner backend, so a
    crash loses exactly the unflushed suffix.  Gives the network front
    door's ack-after-fsync contract something to violate — on a plain
    mem-backend no unacknowledged admission could ever vanish. *)

type flush_handle = {
  frng : Prng.t;
  mutable pending_lines : string list;  (** newest first; volatile *)
  mutable flushes : int;  (** flushes observed since {!arm_flush} *)
  mutable flush_plan : (int * damage) option;
  mutable flush_crashed : bool;
}

val arm_flush : flush_handle -> crash_at_flush:int -> damage:damage -> unit
(** Crash on flush number [crash_at_flush] (0-based, counted from this
    call): [Clean] transfers none of the buffer, [Torn] a strict prefix
    with the next line cut mid-line, [Flipped] everything with one bit
    flipped in the last line.  Earlier flushes' lines are never
    damaged. *)

val write_buffered : Prng.t -> Relational.Wal.backend -> flush_handle * Relational.Wal.backend
(** The wrapped backend buffers appends until [flush]; recovery must
    proceed from the inner backend alone (the survivor of the crash).
    [close] on an uncrashed handle syncs first (orderly exit);
    [truncate] syncs, [rewrite] discards the buffer (segment swap). *)

(** {1 Engine-level fault injection}

    Faults inside the engine's per-partition refill and recheck jobs,
    delivered through [Qdb.set_fault_injector].  Each job's fate is a
    pure hash of [(seed, kind, fanout, job)] — no mutable PRNG — so a
    fault schedule is identical whichever domain runs the engine. *)

exception Injected of string
(** A simulated job crash mid-refill or mid-recheck. *)

type engine_plan = {
  chaos_seed : int;
  refill_rate : float;  (** per-job probability a cache-refill job raises *)
  recheck_rate : float;  (** per-job probability a write-recheck job raises *)
}

val injector : engine_plan -> kind:string -> fanout:int -> job:int -> unit
(** The function to install with [Qdb.set_fault_injector]. *)
