(* Fixed-size log-bucketed latency histogram: O(1) record, O(buckets)
   percentile estimation, no allocation after [create]. Values are
   seconds; buckets are powers of two in nanoseconds, so the relative
   error of a percentile estimate is bounded by the bucket width (at
   most 2x, in practice ~1.4x with the geometric-midpoint estimator).
   That is plenty for p50/p90/p99 reporting - the alternative (keeping
   every sample) is unbounded memory on a per-launch hot path.

   Not thread-safe on its own: callers that share a histogram across
   domains serialize around it (Cachestore does, under its store
   mutex). *)

(* bucket 0: [0, 1ns); bucket i>=1: [2^(i-1), 2^i) ns; the last bucket
   absorbs everything above 2^61 ns (~73 years - effectively +inf).
   Nanosecond units keep sub-microsecond latencies (warm cache hits)
   apart instead of collapsing them into one bucket. *)
let nbuckets = 63

type t = {
  mutable count : int;
  mutable sum : float; (* seconds *)
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
}

let create () =
  { count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity;
    buckets = Array.make nbuckets 0 }

let clear t =
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity;
  Array.fill t.buckets 0 nbuckets 0

let bucket_of_seconds (s : float) : int =
  let ns = s *. 1e9 in
  if ns < 1.0 then 0
  else
    let b = 1 + int_of_float (Float.log2 ns) in
    if b >= nbuckets then nbuckets - 1 else b

let record t (s : float) =
  let s = if Float.is_nan s || s < 0.0 then 0.0 else s in
  t.count <- t.count + 1;
  t.sum <- t.sum +. s;
  if s < t.min_v then t.min_v <- s;
  if s > t.max_v then t.max_v <- s;
  let b = bucket_of_seconds s in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

(* Representative value for bucket [b], in seconds: the geometric
   midpoint of the bucket's range (arithmetic for bucket 0). *)
let bucket_value (b : int) : float =
  if b = 0 then 0.5e-9
  else
    let lo = Float.of_int (1 lsl (b - 1)) in
    lo *. sqrt 2.0 *. 1e-9

(* Estimate the [q]-quantile (q in [0,1]) by walking the cumulative
   bucket counts; the estimate is clamped into [min, max] so a
   single-sample histogram reports the sample itself. *)
let percentile t (q : float) : float =
  if t.count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and found = ref (nbuckets - 1) and i = ref 0 in
    while !i < nbuckets && !acc < rank do
      acc := !acc + t.buckets.(!i);
      if !acc >= rank then found := !i;
      incr i
    done;
    let v = bucket_value !found in
    if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v
  end

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99

let merge ~into (src : t) =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets

let to_string t =
  if t.count = 0 then "n=0"
  else
    Printf.sprintf "n=%d p50=%.3fms p90=%.3fms p99=%.3fms" t.count
      (p50 t *. 1e3) (p90 t *. 1e3) (p99 t *. 1e3)
