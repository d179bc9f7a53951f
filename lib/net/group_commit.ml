(* Group commit: stage acks, sync once, release.  Single-consumer by
   design (the server loop), but the telemetry counters are read by
   stats snapshots from other threads, so they sit behind a mutex. *)

type t = {
  sync : unit -> unit;
  mutable open_acks : (unit -> unit) list; (* newest first *)
  mutable open_durable : int;
  mutable open_count : int;
  (* telemetry *)
  mutex : Mutex.t;
  mutable batches : int;
  mutable acked_durable : int;
  batch_size : Obs.Histogram.t;
}

let create ~sync () =
  {
    sync;
    open_acks = [];
    open_durable = 0;
    open_count = 0;
    mutex = Mutex.create ();
    batches = 0;
    acked_durable = 0;
    batch_size = Obs.Histogram.create ();
  }

let stage t ~durable ack =
  t.open_acks <- ack :: t.open_acks;
  t.open_count <- t.open_count + 1;
  if durable then t.open_durable <- t.open_durable + 1

let staged t = t.open_count

let flush t =
  if t.open_count = 0 then 0
  else begin
    let durable = t.open_durable in
    (* Sync before the batch state is consumed: if the sync raises (the
       crash monkey injects exactly this), the staged acks stay staged
       and unrun — the caller tears the server down and no client ever
       hears about an admission the WAL may not hold. *)
    if durable > 0 then t.sync ();
    let acks = List.rev t.open_acks in
    t.open_acks <- [];
    t.open_durable <- 0;
    t.open_count <- 0;
    List.iter (fun ack -> ack ()) acks;
    if durable > 0 then begin
      Mutex.lock t.mutex;
      t.batches <- t.batches + 1;
      t.acked_durable <- t.acked_durable + durable;
      Obs.Histogram.observe t.batch_size (float_of_int durable);
      Mutex.unlock t.mutex
    end;
    durable
  end

let batches t =
  Mutex.lock t.mutex;
  let n = t.batches in
  Mutex.unlock t.mutex;
  n

let acked_durable t =
  Mutex.lock t.mutex;
  let n = t.acked_durable in
  Mutex.unlock t.mutex;
  n

let mean_batch_size t =
  Mutex.lock t.mutex;
  let m = if t.batches = 0 then 0. else float_of_int t.acked_durable /. float_of_int t.batches in
  Mutex.unlock t.mutex;
  m

let batch_size t = t.batch_size
