(* In-memory span recorder for traced runs.

   Spans are taken around the benchmark's calls into each layer: a name,
   start and end on the monotonic clock (shared by every process on the
   host), the enclosing span, and the request id the span serves.  Each
   domain appends to its own buffer, so actor domains never contend;
   buffers are read only after the domains are joined.  Off by default:
   an untraced run pays one branch per call site. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  rid : int;  (** request id; 0 when the span serves no single request *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  track : int;  (** recording domain (or process) *)
}

type buf = {
  track : int;
  mutable stack : int list;
  mutable rid : int;
  mutable spans : t list;
}

let enabled = ref false
let next_id = Atomic.make 1
let next_track = Atomic.make 0
let bufs : buf list ref = ref []
let bufs_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { track = Atomic.fetch_and_add next_track 1; stack = []; rid = 0; spans = [] } in
      Mutex.lock bufs_m;
      bufs := b :: !bufs;
      Mutex.unlock bufs_m;
      b)

let with_ ?rid name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> 0 in
    let outer_rid = b.rid in
    Option.iter (fun r -> b.rid <- r) rid;
    b.stack <- id :: b.stack;
    let start_ns = Obs.Mclock.now_ns () in
    let finish () =
      let stop_ns = Obs.Mclock.now_ns () in
      b.stack <- List.tl b.stack;
      b.spans <- { id; parent; rid = b.rid; name; start_ns; stop_ns; track = b.track } :: b.spans;
      b.rid <- outer_rid
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A root span whose interval was measured elsewhere (an asynchronous
   request, from when it was due to when its reply arrived). *)
let record ~rid ~name ~start_ns ~stop_ns =
  if !enabled then begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    b.spans <- { id; parent = 0; rid; name; start_ns; stop_ns; track = b.track } :: b.spans
  end

(* Every span recorded so far, on every domain; call after joining them. *)
let collect () =
  Mutex.lock bufs_m;
  let all = List.concat_map (fun b -> b.spans) !bufs in
  Mutex.unlock bufs_m;
  all

let dur_s s = Obs.Mclock.ns_to_s (Int64.sub s.stop_ns s.start_ns)

(* Self time per span name: a span's duration minus what its direct
   children cover. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur_s s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur_s s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Sorted, disjoint union of intervals. *)
let union ivs =
  List.filter (fun (a, b) -> Int64.compare a b < 0) ivs
  |> List.sort compare
  |> List.fold_left
       (fun acc (a, b) ->
         match acc with
         | (a', b') :: rest when Int64.compare a b' <= 0 -> (a', max b b') :: rest
         | _ -> (a, b) :: acc)
       []
  |> List.rev

(* Share of the union of [windows] that the union of [spans] covers. *)
let coverage spans ~windows =
  let ws = union windows and cs = union (List.map (fun s -> (s.start_ns, s.stop_ns)) spans) in
  let rec overlap acc ws cs =
    match ws, cs with
    | (a, b) :: ws', (c, d) :: cs' ->
      let lo = max a c and hi = min b d in
      let acc = if Int64.compare lo hi < 0 then Int64.add acc (Int64.sub hi lo) else acc in
      if Int64.compare b d < 0 then overlap acc ws' cs else overlap acc ws cs'
    | _ -> acc
  in
  let total = List.fold_left (fun acc (a, b) -> Int64.add acc (Int64.sub b a)) 0L ws in
  if Int64.compare total 0L <= 0 then 0.
  else 100. *. Int64.to_float (overlap 0L ws cs) /. Int64.to_float total

(* Chrome trace-event JSON, one complete ("X") event per span. *)
let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \
             \"args\": {\"id\": %d, \"parent\": %d, \"rid\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name s.track
            (Int64.to_float s.start_ns /. 1e3)
            (Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3)
            s.id s.parent s.rid)
        spans;
      output_string oc "]}\n")
