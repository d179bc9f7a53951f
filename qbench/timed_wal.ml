(* A timing wrapper around the closures of a [Relational.Wal.backend]:
   appends and flushes (channel flush + fsync on a file backend) are
   counted and timed, and spanned in traced runs.  One wrapper per
   store, touched only by the domain that owns the store. *)

type t = {
  backend : Relational.Wal.backend;
  mutable append_ns : int64;
  mutable appends : int;
  mutable bytes : int;
  mutable flush_ns : int64;
  mutable flushes : int;
}

let wrap (inner : Relational.Wal.backend) =
  let rec t =
    {
      backend =
        {
          inner with
          append =
            (fun line ->
              Span.with_ "wal.append" @@ fun () ->
              let t0 = Obs.Mclock.now_ns () in
              inner.append line;
              t.append_ns <- Int64.add t.append_ns (Obs.Mclock.elapsed_ns t0);
              t.appends <- t.appends + 1;
              t.bytes <- t.bytes + String.length line + 1);
          flush =
            (fun () ->
              Span.with_ "wal.fsync" @@ fun () ->
              let t0 = Obs.Mclock.now_ns () in
              inner.flush ();
              t.flush_ns <- Int64.add t.flush_ns (Obs.Mclock.elapsed_ns t0);
              t.flushes <- t.flushes + 1);
        };
      append_ns = 0L;
      appends = 0;
      bytes = 0;
      flush_ns = 0L;
      flushes = 0;
    }
  in
  t

let wal_ns t = Int64.add t.append_ns t.flush_ns

let reset t =
  t.append_ns <- 0L;
  t.appends <- 0;
  t.bytes <- 0;
  t.flush_ns <- 0L;
  t.flushes <- 0
