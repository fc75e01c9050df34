(* Order statistics over raw samples. Every percentile the benchmark
   reports comes from here, computed from the full sample array (never
   from a bucketed histogram, whose bucket width would hide the spread
   of sub-microsecond and microsecond latencies). *)

(* Linear interpolation between closest ranks (the "R7" definition used
   by numpy's default and Python's statistics.quantiles(method=
   'inclusive')): rank h = (n - 1) * p over the sorted samples. *)
let percentile_sorted (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sample.percentile: no samples";
  if p < 0.0 || p > 1.0 then invalid_arg "Sample.percentile: p outside [0, 1]";
  let h = float_of_int (n - 1) *. p in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy (xs : float array) : float array =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile (xs : float array) (p : float) : float =
  percentile_sorted (sorted_copy xs) p

let median (xs : float array) : float = percentile xs 0.5

let mean (xs : float array) : float =
  if Array.length xs = 0 then invalid_arg "Sample.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* A growable float buffer: the hot loops append one latency per
   operation without allocating per sample. *)
type buf = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add (b : buf) (x : float) : unit =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let length (b : buf) : int = b.len
let to_array (b : buf) : float array = Array.sub b.data 0 b.len

(* The [n] most recent samples. *)
let last (b : buf) (n : int) : float array = Array.sub b.data (b.len - n) n

(* The [p]-th percentile over groups of each group's median. Each group
   holds the repeats of one operation (one compile key, one program), so
   a slow spell that hits a few repeats barely moves any group's median,
   and the percentile ranges over the operation mix, not over single
   noisy samples. *)
let percentile_of_medians (groups : float array list) (p : float) : float =
  percentile (Array.of_list (List.map median groups)) p

let sum (b : buf) : float =
  let s = ref 0.0 in
  for i = 0 to b.len - 1 do
    s := !s +. b.data.(i)
  done;
  !s
