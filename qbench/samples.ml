(* Growable float sample buffers and exact sample quantiles.

   Quantiles are computed from the sorted samples themselves (linear
   interpolation between order statistics), never from histogram bucket
   edges, and every reported quantile travels with its sample count. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let append ~into t =
  for i = 0 to t.n - 1 do
    add into t.data.(i)
  done

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

(* Quantile [q] in [0, 1] of a sorted array; 0 when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let quantile t q = quantile_sorted (sorted t) q
