(* Result assembly: metrics with units, a details object (host, sizes,
   sample counts, percentiles), and the one-line JSON result. *)

module J = Obs.Json

let int n = J.Num (float_of_int n)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What a workload hands back: its metrics, the facts behind them, and
   the correctness verdict. *)
type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** correctness checks that missed *)
  metrics : metric list;
  details : (string * J.t) list;
}

(* Percentile ladder for [_tail_ms]: the highest level that leaves at
   least [min_beyond] samples above it. *)
let tail_ladder = [ 0.999; 0.998; 0.995; 0.99; 0.98; 0.95; 0.9; 0.8; 0.5 ]
let min_beyond = 10

(* p50 and tail of a latency sample set (seconds in, milliseconds out).
   [tail_q] is the workload's fixed tail level, chosen so a normal run
   leaves well over [min_beyond] samples above it; a run with fewer
   samples steps down the ladder, and the details say so. *)
let latency prefix ~tail_q samples =
  let sorted = Samples.sorted samples in
  let n = Array.length sorted in
  let beyond q =
    let v = Samples.quantile_sorted sorted q in
    Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted
  in
  let q =
    List.find_opt (fun q -> q <= tail_q && beyond q >= min_beyond) tail_ladder
    |> Option.value ~default:0.5
  in
  let ms q = 1e3 *. Samples.quantile_sorted sorted q in
  ( [ metric (prefix ^ "_p50_ms") "ms" (ms 0.5); metric (prefix ^ "_tail_ms") "ms" (ms q) ],
    ( prefix,
      J.Obj
        [
          ("samples", int n);
          ("p50_ms", J.Num (ms 0.5));
          ("tail_percentile", J.Num (100. *. q));
          ("tail_ms", J.Num (ms q));
          ("samples_beyond_tail", int (beyond q));
          ("max_ms", J.Num (if n = 0 then 0. else 1e3 *. sorted.(n - 1)));
        ] ) )

let p50_only prefix samples =
  let sorted = Samples.sorted samples in
  let ms = 1e3 *. Samples.quantile_sorted sorted 0.5 in
  ( metric (prefix ^ "_p50_ms") "ms" ms,
    (prefix, J.Obj [ ("samples", int (Array.length sorted)); ("p50_ms", J.Num ms) ]) )

(* A traced run's spans and its measured phases, the time that should
   be split into layers and the spans that count as layers there. *)
type trace = {
  spans : Span.t list;
  windows : (int64 * int64) list;
  attributed : (int64 * int64) list * Span.t list;
  overhead_pct : float;  (** traced against untraced, on the same inputs *)
}

let median xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.quantile s 0.5

let result_line ~correct (o : outcome) metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", int o.attempted);
         ("failed", int o.failed);
         ( "metrics",
           J.Obj
             (List.map (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ])) metrics)
         );
       ])
