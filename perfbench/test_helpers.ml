(* Unit tests for the benchmark's percentile and self-time helpers. *)

open Perfbench_helpers

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* reference values from Python: statistics.quantiles(xs, n=100,
     method="inclusive") and numpy.percentile (linear) *)
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  check "p0 is the minimum" (close (Sample.percentile xs 0.0) 15.0);
  check "p100 is the maximum" (close (Sample.percentile xs 1.0) 50.0);
  check "odd median" (close (Sample.median xs) 35.0);
  check "p40 interpolates" (close (Sample.percentile xs 0.4) 29.0);
  check "p90 interpolates" (close (Sample.percentile xs 0.9) 46.0);
  check "even median" (close (Sample.median [| 4.0; 1.0; 3.0; 2.0 |]) 2.5);
  check "unsorted input" (close (Sample.percentile [| 3.0; 1.0; 2.0 |] 0.5) 2.0);
  check "input left unsorted"
    (let a = [| 3.0; 1.0; 2.0 |] in
     ignore (Sample.median a);
     a = [| 3.0; 1.0; 2.0 |]);
  check "single sample" (close (Sample.percentile [| 7.0 |] 0.99) 7.0);
  (* a skewed sample: p50 must sit below p99, unlike a histogram whose
     first bucket swallows every sub-microsecond value *)
  let skewed = Array.init 1000 (fun i -> if i < 980 then 0.2 +. (float_of_int i *. 1e-4) else 50.0) in
  check "skewed p50 < p99" (Sample.percentile skewed 0.5 < Sample.percentile skewed 0.99);
  check "empty rejected"
    (match Sample.percentile [||] 0.5 with _ -> false | exception Invalid_argument _ -> true);
  let b = Sample.create () in
  for i = 1 to 5000 do
    Sample.add b (float_of_int i)
  done;
  check "buffer grows" (Sample.length b = 5000 && close (Sample.sum b) 12502500.0);
  check "buffer median" (close (Sample.median (Sample.to_array b)) 2500.5);
  check "last samples" (Sample.last b 2 = [| 4999.0; 5000.0 |]);
  let groups = [ [| 1.0; 2.0; 300.0 |]; [| 10.0; 20.0; 30.0 |]; [| 6.0; 5.0; 4.0 |] ] in
  check "median of group medians" (close (Sample.percentile_of_medians groups 0.5) 5.0);
  check "p90 of group medians" (close (Sample.percentile_of_medians groups 0.9) 17.0);
  (* covered: union of child intervals clipped to the parent *)
  check "disjoint children" (close (Span.covered ~t0:0.0 ~t1:10.0 [ (1.0, 2.0); (4.0, 6.0) ]) 3.0);
  check "overlapping children"
    (close (Span.covered ~t0:0.0 ~t1:10.0 [ (1.0, 5.0); (3.0, 7.0); (6.0, 8.0) ]) 7.0);
  check "children clipped to parent"
    (close (Span.covered ~t0:2.0 ~t1:6.0 [ (0.0, 3.0); (5.0, 9.0) ]) 2.0);
  check "no children" (close (Span.covered ~t0:0.0 ~t1:1.0 []) 0.0);
  let sp id parent t0 t1 name = { Span.id; name; parent; req = 0; tid = 0; t0; t1 } in
  let spans =
    [ sp 0 (-1) 0.0 10.0 "compile"; sp 1 0 0.0 2.0 "decode"; sp 2 0 2.0 7.0 "o3";
      sp 3 2 2.5 3.5 "pass"; sp 4 2 4.0 5.0 "pass"; sp 5 (-1) 20.0 21.0 "compile" ]
  in
  let self id =
    snd (List.find (fun ((s : Span.span), _) -> s.Span.id = id) (Span.self_times spans))
  in
  check "root self time" (close (self 0) 3.0);
  check "nested self time" (close (self 2) 3.0);
  check "leaf self time" (close (self 3) 1.0);
  let by_name = Span.self_by_name spans in
  check "self by name sums spans"
    (Hashtbl.find by_name "compile" = (4.0, 2) && Hashtbl.find by_name "pass" = (2.0, 2));
  check "self times account for the root"
    (close (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Span.self_times spans)) 11.0);
  (* the recorder nests spans and is a no-op when disabled *)
  check "disabled recorder records nothing" (Span.with_ "x" (fun () -> 1) = 1 && Span.all () = []);
  Span.enable ();
  Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> ()));
  (match List.sort (fun a b -> compare a.Span.id b.Span.id) (Span.all ()) with
  | [ o; i ] -> check "recorded parent" (o.Span.name = "outer" && i.Span.parent = o.Span.id)
  | _ -> check "two spans recorded" false);
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: all tests passed"
