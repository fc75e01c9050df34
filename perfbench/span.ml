(* The benchmark's span recorder. A span is one timed call the
   harness makes into a layer of the stack: its name, start and end,
   the span that was open when it began (its parent) and the id of the
   request (compile, program run or launch) it belongs to. Spans are
   kept in memory, one recorder per domain so shards never contend,
   and written as Chrome trace-event JSON when the benchmark ends.
   Recording is off unless [enable] is called before any domain is
   spawned; [with_] then costs one branch. *)

(* The benchmark's clock: CPU seconds (user + system) of the whole
   process, clock_gettime(CLOCK_PROCESS_CPUTIME_ID). On a core of its
   own a single-domain call's CPU time equals its wall time; on a shared
   host it leaves out the time the host hands the core to someone else,
   which made wall-clock figures of the same code swing by 2x between
   runs. Every operation time and every span is read from it. *)
external now : unit -> (float[@unboxed]) = "perfbench_cpu_now_byte" "perfbench_cpu_now"
[@@noalloc]

(* Wall-clock seconds, for the length of the window and the spacing of
   the host-speed calibrations only. *)
let wall () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int; (* -1: no enclosing span *)
  req : int;
  tid : int; (* recording domain *)
  t0 : float;
  t1 : float;
}

type recorder = {
  rtid : int;
  mutable finished : span list; (* most recent first *)
  mutable kept : int;
  mutable dropped : int;
  mutable stack : int list; (* ids of open spans, innermost first *)
  mutable cur_req : int;
}

(* Beyond this many spans per domain only the count of dropped spans
   grows, so a long traced serve run cannot exhaust memory. *)
let max_spans = 100_000

let enabled = ref false
let next_id = Atomic.make 0
let recorders : recorder list ref = ref []
let recorders_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          rtid = (Domain.self () :> int);
          finished = [];
          kept = 0;
          dropped = 0;
          stack = [];
          cur_req = -1;
        }
      in
      Mutex.protect recorders_mu (fun () -> recorders := r :: !recorders);
      r)

let enable () = enabled := true

let set_request (req : int) : unit =
  if !enabled then (Domain.DLS.get key).cur_req <- req

let finish (r : recorder) ~id ~name ~parent ~t0 =
  let t1 = now () in
  r.stack <- (match r.stack with _ :: rest -> rest | [] -> []);
  if r.kept < max_spans then begin
    r.finished <- { id; name; parent; req = r.cur_req; tid = r.rtid; t0; t1 } :: r.finished;
    r.kept <- r.kept + 1
  end
  else r.dropped <- r.dropped + 1

(* Time [f ()] as a span named [name], nested under the innermost span
   open on this domain. *)
let with_ (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let r = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let t0 = now () in
    match f () with
    | v ->
        finish r ~id ~name ~parent ~t0;
        v
    | exception e ->
        finish r ~id ~name ~parent ~t0;
        raise e
  end

let all () : span list =
  Mutex.protect recorders_mu (fun () ->
      List.concat_map (fun r -> r.finished) !recorders)

let dropped () : int =
  Mutex.protect recorders_mu (fun () ->
      List.fold_left (fun acc r -> acc + r.dropped) 0 !recorders)

(* ---- self time ----------------------------------------------------- *)

(* Length of the part of [t0, t1] covered by the union of [intervals]. *)
let covered ~(t0 : float) ~(t1 : float) (intervals : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Each span's self time: its duration minus the part of it that its
   child spans cover. *)
let self_times (spans : span list) : (span * float) list =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~t0:s.t0 ~t1:s.t1 kids))
    spans

(* Total self time and span count per span name. *)
let self_by_name (spans : span list) : (string, float * int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let tot, n = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0) in
      Hashtbl.replace tbl s.name (tot +. self, n + 1))
    (self_times spans);
  tbl

(* ---- Chrome trace-event output ------------------------------------- *)

let write_chrome_trace (path : string) (spans : span list) : unit =
  let spans = List.sort (fun a b -> compare a.t0 b.t0) spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.tid
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.req)
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"
