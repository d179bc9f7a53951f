(* Engine counters summed over every [Qdb.t] a run touched, read from
   [Qdb.metrics] after the work is done, plus the benchmark's own
   timings of the public calls it made. *)

module Qdb = Quantum.Qdb
module Metrics = Quantum.Metrics

type t = {
  mutable nodes : int;
  mutable candidates : int;
  mutable reject_nodes : int;  (** solver nodes spent in admissions that were rejected *)
  mutable rejects : int;
  mutable exhaustions : int;
  mutable extensions : int;
  mutable extension_hits : int;
  mutable check_ns : int64;  (** in [Qdb.prepare] *)
  mutable commit_ns : int64;  (** in [Qdb.commit_prepared], WAL time excluded *)
  mutable ground_ns : int64;  (** in [Qdb.ground] *)
  mutable read_ns : int64;  (** in [Qdb.read] *)
}

let create () =
  {
    nodes = 0;
    candidates = 0;
    reject_nodes = 0;
    rejects = 0;
    exhaustions = 0;
    extensions = 0;
    extension_hits = 0;
    check_ns = 0L;
    commit_ns = 0L;
    ground_ns = 0L;
    read_ns = 0L;
  }

let add_engine t qdb =
  let m = Qdb.metrics qdb in
  t.nodes <- t.nodes + m.Metrics.solver_stats.Solver.Backtrack.nodes;
  t.candidates <- t.candidates + m.Metrics.solver_stats.Solver.Backtrack.candidates;
  t.exhaustions <- t.exhaustions + m.Metrics.governor_exhaustions;
  t.extensions <- t.extensions + m.Metrics.cache_stats.Solver.Cache.extensions;
  t.extension_hits <- t.extension_hits + m.Metrics.cache_stats.Solver.Cache.extension_hits

let merge ~into t =
  into.nodes <- into.nodes + t.nodes;
  into.candidates <- into.candidates + t.candidates;
  into.reject_nodes <- into.reject_nodes + t.reject_nodes;
  into.rejects <- into.rejects + t.rejects;
  into.exhaustions <- into.exhaustions + t.exhaustions;
  into.extensions <- into.extensions + t.extensions;
  into.extension_hits <- into.extension_hits + t.extension_hits;
  into.check_ns <- Int64.add into.check_ns t.check_ns;
  into.commit_ns <- Int64.add into.commit_ns t.commit_ns;
  into.ground_ns <- Int64.add into.ground_ns t.ground_ns;
  into.read_ns <- Int64.add into.read_ns t.read_ns

let s = Obs.Mclock.ns_to_s

let metrics t =
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Report.
    [
      metric "core.check_s" "s" (s t.check_ns);
      metric "core.commit_s" "s" (s t.commit_ns);
      metric "core.ground_s" "s" (s t.ground_ns);
      metric "core.read_s" "s" (s t.read_ns);
      metric "solver.nodes" "count" (float_of_int t.nodes);
      metric "solver.candidates" "count" (float_of_int t.candidates);
      metric "solver.nodes_per_reject" "count" (ratio t.reject_nodes t.rejects);
      metric "solver.cache_hit_pct" "%" (100. *. ratio t.extension_hits t.extensions);
      metric "governor.exhaustions" "count" (float_of_int t.exhaustions);
    ]
