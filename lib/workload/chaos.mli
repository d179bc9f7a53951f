(** Engine-wide chaos harness: deterministic injection of solver-budget
    exhaustion (squeezed governors), job exceptions mid-refill and
    mid-recheck (cache refills, blind-write rechecks), with the survival
    contract: the engine absorbs every fault, outcomes replay
    bit-identically inline and routed through 1/2/4 actors, a squeezed
    [Rejected] re-rejects under the default governor, and [Overloaded]
    leaves the pending set untouched. *)

type cycle_outcome = {
  events : string list;  (** compact event trace — the determinism fingerprint *)
  submissions : int;
  committed : int;
  rejected : int;
  overloaded : int;
  squeezed : int;
  refill_faults : int;
  write_aborts : int;
  groundings : int;
  violations : string list;
}

type summary = {
  cycles : int;
  submissions : int;
  committed : int;
  rejected : int;
  overloaded : int;
  squeezed : int;
  refill_faults : int;
  write_aborts : int;
  groundings : int;
  determinism_checks : int;
  violations : (int * string) list;  (** (cycle, what broke) *)
}

val run_cycle : ?actors:int -> seed:int -> unit -> cycle_outcome
(** One reproducible chaos cycle: fresh engine over a small scarce travel
    fixture, PRNG-scheduled submissions (a quarter squeezed), blind
    writes and groundings, fault injection on every refill and recheck.
    With [actors], every engine call round-trips through an actor
    ({!Actor.Runtime.call}, unclamped), call i on actor i mod [actors],
    so at 2 or more actors consecutive calls run on different spawned
    domains; the schedule PRNG stays on the orchestrator. *)

val run : ?cycles:int -> ?seed:int -> unit -> summary
(** Run [cycles] cycles, each inline (the reference, whose counts the
    summary totals) and replayed through 1, 2 and 4 actors, comparing
    the event traces bit-for-bit: three determinism checks per cycle. *)

val pp : Format.formatter -> summary -> unit
