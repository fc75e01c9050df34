(* Benchmark of the Proteus stack's host time: cold JIT compiles, warm
   HeCBench programs and a multi-tenant serve loop, measured from the
   outside through each layer's public functions.

   Usage:
     bench.exe --workload jit-compile|hecbench-warm --seed N
               --seconds S --trace 0|1
     bench.exe --record FILE     (regenerate the reference file)

   Run from the repository root: it reads perfbench/reference.txt and
   keeps its stores and traces under .perfbench/.

   Every run sets up three times (AOT build, launch capture, warm-cache
   populate, workload generation) and reports the median set-up time.
   It then measures three operation kinds: the named workload's
   operations (compiles or warm program runs) fill a window of
   --seconds, and fixed-size probes of the other kind and of Serve
   launches are interleaved evenly over it, so every end-to-end metric
   has a value on every workload. Each operation is checked against the
   reference file; a wrong result is a failed operation. Times are the
   process's CPU time (see [Span.now]), scaled to a reference host
   speed (see "host speed" below); only the window is wall-clock. The
   whole run stays on one domain. The last line of stdout is one JSON
   object with the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1, which also writes a Chrome trace into
   .perfbench/). *)

open Perfbench_helpers
open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_core
open Proteus_driver
open Proteus_hecbench
module Pass = Proteus_opt.Pass
module Pipeline = Proteus_opt.Pipeline
module Workload = Proteus_fuzz.Workload
module Rng = Proteus_support.Util.Rng

let now = Span.now
let wall = Span.wall
let vendors = [ Device.Amd; Device.Nvidia ]
let vendor_name = function Device.Amd -> "amd" | Device.Nvidia -> "nvidia"

(* ---- configuration ------------------------------------------------- *)

(* Every field pinned here, not inherited from [Config.default], which
   reads PROTEUS_* variables at start-up. Verify level 0: see NOTES.md
   for the verify-level-2 hang that keeps TransVal out of the runs.
   The executor runs on one domain: on a shared 2-core host a second
   executor domain ties a program's wall time to whether another
   process holds the other core (program times varied 2x between runs
   on such a host). *)
let config ~(persistent_dir : string option) : Config.t =
  {
    Config.enable_rcf = true;
    enable_lb = true;
    use_mem_cache = true;
    persistent_dir;
    fault_plan = [];
    quarantine_threshold = 3;
    quarantine_backoff = 16;
    verify_jit = false;
    verify_level = 0;
    verify_strict = false;
    exec_domains = 1;
    spec_policy = Config.Spec_all;
    spec_threshold = Proteus_analysis.Specadvisor.default_threshold;
    stage_deadline_ms = 0.0;
    retry_max = 2;
    retry_backoff_ms = 1.0;
    lock_timeout_ms = 1000.0;
    tier = false;
    tier_threshold = 2;
    tenant_quota = 0;
  }

let new_store (dir : string option) : Cachestore.t =
  Cachestore.create ?persistent_dir:dir ~mem_limit:0 ~disk_limit:0 ~tenant_quota:0
    ~lock_timeout_ms:1000.0 ()

(* Config.default, Cachestore.create, Fault and Pool all read PROTEUS_*
   variables; any of them set would silently change what is measured. *)
let check_env () =
  let stray =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.starts_with ~prefix:"PROTEUS_" kv)
  in
  if stray <> [] then begin
    Printf.eprintf "perfbench: set-up refused, PROTEUS_* set in the environment: %s\n"
      (String.concat " " stray);
    exit 2
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- reference values --------------------------------------------- *)

(* Machine-code shape of one compiled kernel, as the JIT's own
   [Jit.compile_specialization] produced it when the reference file was
   recorded. *)
type shape = { minsts : int; vregs : int; sregs : int; spills : int }

(* A program's simulated times (exact) and the digest of its AOT output. *)
type program_ref = { e2e_s : float; kernel_s : float; aot_md5 : string }

type reference = {
  shapes : (string, shape) Hashtbl.t; (* vendor/sym/block *)
  programs : (string, program_ref) Hashtbl.t; (* app/vendor *)
}

let shape_key vendor sym block = Printf.sprintf "%s/%s/%d" (vendor_name vendor) sym block
let program_key (a : App.t) vendor = a.App.name ^ "/" ^ vendor_name vendor

let load_reference (path : string) : reference =
  let r = { shapes = Hashtbl.create 128; programs = Hashtbl.create 16 } in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          match String.split_on_char ' ' (String.trim (input_line ic)) with
          | [ "compile"; k; mi; v; s; sp ] ->
              Hashtbl.replace r.shapes k
                {
                  minsts = int_of_string mi;
                  vregs = int_of_string v;
                  sregs = int_of_string s;
                  spills = int_of_string sp;
                }
          | [ "program"; k; e2e; kern; md5 ] ->
              Hashtbl.replace r.programs k
                { e2e_s = float_of_string e2e; kernel_s = float_of_string kern; aot_md5 = md5 }
          | [ "" ] -> ()
          | l when String.length (List.hd l) > 0 && (List.hd l).[0] = '#' -> ()
          | _ -> failwith ("perfbench: malformed reference line in " ^ path)
        done
      with End_of_file -> ());
  r

(* ---- programs and launch capture ---------------------------------- *)

type program = { app : App.t; vendor : Device.vendor; exe : Driver.exe }

(* One kernel specialization the JIT builds: everything a compile needs,
   captured from a real launch of the program. *)
type ckey = {
  c_vendor : Device.vendor;
  c_sym : string;
  c_mid : string;
  c_block : int; (* block size the program launches with *)
  c_spec : (int * Konst.t) list;
  c_bitcode : string;
  c_globals : (string * int64) list; (* device globals the kernel links *)
}

let aot_build () : program list =
  List.concat_map
    (fun vendor ->
      List.map
        (fun (a : App.t) ->
          let exe =
            Driver.compile ~name:a.App.name ~diagnostics:false ~vendor ~mode:Driver.Proteus
              a.App.source
          in
          { app = a; vendor; exe })
        Suite.apps)
    vendors

(* Replay the program's host code with a hook in front of
   [Jit.host_hook] that records every kernel launch instead of executing
   it (the annotated arguments of all six apps are host-computed, so the
   launch stream is the program's real one). Returns the distinct
   specializations in first-launch order. *)
let capture (p : program) : ckey list =
  let rt = Gpurt.create (Device.by_vendor p.vendor) in
  ignore (Gpurt.load_module rt p.exe.Driver.fatbin);
  let jit =
    Jit.create ~config:(config ~persistent_dir:None) ~cache:(new_store None)
      rt p.vendor
  in
  let seen = Hashtbl.create 8 in
  let keys = ref [] in
  let resolve name =
    match Gpurt.get_symbol_address rt name with
    | Some a -> a
    | None -> failwith ("perfbench: unresolved device global " ^ name)
  in
  let globals bitcode =
    List.filter_map
      (fun (g : Ir.gvar) -> if g.Ir.gextern then Some (g.Ir.gname, resolve g.Ir.gname) else None)
      (Bitcode.decode_module bitcode).Ir.globals
  in
  let hook h name args =
    if name <> Plugin.entry_point then Jit.host_hook jit h name args
    else
      match args with
      | mid_ptr :: stub :: _grid :: block :: _shmem :: (_ :: _ as rest) ->
          let mid = Hostexec.read_cstring h.Hostexec.host_mem (Konst.as_int mid_ptr) in
          let n = List.length rest in
          let kargs = Array.of_list (List.filteri (fun i _ -> i < n - 1) rest) in
          let mask = Konst.as_int (List.nth rest (n - 1)) in
          let sym =
            match Gpurt.sym_of_stub rt (Konst.as_int stub) with
            | Some s -> s
            | None -> failwith "perfbench: launch of an unregistered stub"
          in
          let block = Int64.to_int (Konst.as_int block) in
          let spec =
            List.filter_map
              (fun i -> if i <= Array.length kargs then Some (i, kargs.(i - 1)) else None)
              (Annotate.args_of_mask mask)
          in
          let k =
            Speckey.to_string
              (Speckey.compute ~mid ~sym ~spec_values:spec ~launch_bounds:(Some block))
          in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            let bitcode = Jit.fetch_bitcode jit sym in
            keys :=
              {
                c_vendor = p.vendor;
                c_sym = sym;
                c_mid = mid;
                c_block = block;
                c_spec = spec;
                c_bitcode = bitcode;
                c_globals = globals bitcode;
              }
              :: !keys
          end;
          Some None
      | _ -> failwith "perfbench: malformed __jit_launch_kernel call"
  in
  ignore (Hostexec.run ~extra:hook rt p.exe.Driver.host);
  List.rev !keys

(* ---- the staged compile ------------------------------------------- *)

(* The O3 pipeline with every pass's [run] wrapped in a span, so the
   trace attributes optimizer time to each pass. The [Simplify] module
   registers as "instcombine"; its span uses the module name. *)
let pass_label (p : Pass.t) =
  if p.Pass.name = Proteus_opt.Simplify.pass.Pass.name then "simplify" else p.Pass.name

let traced_o3 =
  lazy
    (List.map
       (fun (p : Pass.t) ->
         let name = "opt.pass." ^ pass_label p in
         { p with Pass.run = (fun m f -> Span.with_ name (fun () -> p.Pass.run m f)) })
       Pipeline.o3)

let pass_names =
  List.sort_uniq compare (List.map pass_label Pipeline.o3)

type compiled = { shape : shape; pass_runs : int; work : int; ir_out : int }

(* One JIT compile with the executor removed, stage by stage as
   [Jit.compile_specialization] runs it: decode, specialize, O3,
   codegen, then insert into the store and decode the threaded code the
   executor would run. *)
let compile_one (store : Cachestore.t) (k : ckey) ~(block : int) ~(mid : string) : compiled =
  let cfg = config ~persistent_dir:None in
  Span.with_ "proteus.compile" @@ fun () ->
  let m = Span.with_ "ir.decode" (fun () -> Bitcode.decode_module k.c_bitcode) in
  Span.with_ "proteus.specialize" (fun () ->
      Specialize.apply cfg m ~kernel:k.c_sym ~spec_values:k.c_spec ~block
        ~resolve_global:(fun g -> List.assoc g k.c_globals));
  let passes = if !Span.enabled then Lazy.force traced_o3 else Pipeline.o3 in
  let pstats = Span.with_ "opt.o3" (fun () -> Pipeline.run ~passes m) in
  let ir_out = Pass.module_size m in
  let obj =
    match k.c_vendor with
    | Device.Amd ->
        Span.with_ "backend.gcn" (fun () ->
            let mf = Gcn.lower_kernel m (Ir.find_func m k.c_sym) in
            { Mach.okind = Mach.VGcn; kernels = [ mf ]; oglobals = []; sections = [] })
    | Device.Nvidia ->
        let ptx = Span.with_ "backend.ptx_emit" (fun () -> Ptx.emit m) in
        Span.with_ "backend.ptxas" (fun () -> Ptxas.compile ~globals:[] ptx)
  in
  let key =
    Speckey.compute ~mid ~sym:k.c_sym ~spec_values:k.c_spec ~launch_bounds:(Some block)
  in
  let e = Span.with_ "proteus.cache_insert" (fun () -> Cachestore.insert store key obj) in
  let mf = Mach.find_kernel e.Cachestore.obj k.c_sym in
  ignore (Span.with_ "gpu.tcode_decode" (fun () -> Tcode.decode mf));
  {
    shape =
      {
        minsts = Mach.instr_count mf;
        vregs = mf.Mach.vregs;
        sregs = mf.Mach.sregs;
        spills = mf.Mach.spill_slots;
      };
    pass_runs = List.fold_left (fun acc (_, n) -> acc + n) 0 pstats.Pass.runs;
    work = pstats.Pass.work;
    ir_out;
  }

(* ---- host speed ---------------------------------------------------- *)

(* A shared host runs the same code at different speeds from one minute
   to the next (other tenants on the same cores and caches): a fixed
   integer loop's CPU time ranged over 1.8x between runs. So the run
   also times a fixed calibration routine, code of the benchmark's own
   that no change to the stack can touch, before the slices of each
   phase (set-up, then the window), and reports each phase's times (and
   rates) scaled by the calibration's median in that phase against
   [calib_ref_ms]: the figures are at reference host speed. The raw
   figures and the factors are printed beside them. The routine is
   integer work with dependent loads over a 16 KB table. It allocates
   nothing and stays in the core's own cache, so the stack's heap cannot
   change its time: over a 16 MB table its time moved 2x with where the
   table happened to lie. *)
let calib_mask = (1 lsl 11) - 1
let calib_walk = Array.init (calib_mask + 1) (fun i -> ((i * 7919) + 1) land calib_mask)

let calib_work () =
  let acc = ref 0 and j = ref 0 in
  for i = 1 to 600_000 do
    let h = (i * 0x9E3779B1) lxor (!acc lsr 7) in
    acc := !acc + (h land 0xffff);
    if i land 7 = 0 then j := calib_walk.((!j + h) land calib_mask)
  done;
  !acc + !j

(* The reference speed: the lowest phase median of [calib_work] seen
   while the benchmark was tuned, on a shared 2-core Xeon VM. *)
let calib_ref_ms = 1.10
let calib_every = 0.2

(* Calibration times of the current phase. *)
let calib = ref (Sample.create ())
let last_calib = ref neg_infinity

let new_phase () =
  calib := Sample.create ();
  last_calib := neg_infinity

(* Time [calib_work] if [calib_every] seconds have passed since the
   last time (or [~force]). The measuring loops call this before every
   slice. *)
let calibrate ?(force = false) () =
  if force || wall () -. !last_calib >= calib_every then begin
    let t0 = now () in
    ignore (Sys.opaque_identity (calib_work ()));
    Sample.add !calib ((now () -. t0) *. 1e3);
    last_calib := wall ()
  end

(* How much slower than the reference the host ran in the current
   phase. *)
let host_factor () = Sample.median (Sample.to_array !calib) /. calib_ref_ms

(* ---- set-up -------------------------------------------------------- *)

let block_sizes = [ 64; 128; 256; 512; 1024 ]

type setup = {
  programs : program list;
  launch_keys : ckey list; (* every specialization the programs launch *)
  kernel_keys : ckey list; (* first specialization of each JIT kernel *)
  warm_dir : Device.vendor -> string;
      (* persistent store holding every launch key of one vendor; the
         vendors need separate stores because a specialization key does
         not name the backend *)
  schedule : (int * int) array; (* serve: (tenant, kernel) launches *)
  t_aot : float;
  t_capture : float;
  t_populate : float;
  t_gen : float;
}

let serve_tenants = 4
let serve_kernels = 16
let serve_skew = 1.1
let serve_schedule_len = 1 lsl 17

(* Time one set-up step, calibrating around it. *)
let timed f =
  for _ = 1 to 5 do
    calibrate ~force:true ()
  done;
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let do_setup ~(dir : string) ~(seed : int) : setup =
  let programs, t_aot = timed aot_build in
  let launch_keys, t_capture = timed (fun () -> List.concat_map capture programs) in
  let kernel_keys =
    let firsts = Hashtbl.create 32 in
    List.filter
      (fun k ->
        let id = (k.c_vendor, k.c_sym) in
        if Hashtbl.mem firsts id then false
        else (
          Hashtbl.replace firsts id ();
          true))
      launch_keys
  in
  let warm_dir v = Filename.concat dir (vendor_name v) in
  List.iter (fun v -> rm_rf (warm_dir v)) vendors;
  let (), t_populate =
    timed (fun () ->
        List.iter
          (fun v ->
            let store = new_store (Some (warm_dir v)) in
            List.iter
              (fun k ->
                if k.c_vendor = v then ignore (compile_one store k ~block:k.c_block ~mid:k.c_mid))
              launch_keys)
          vendors)
  in
  let schedule, t_gen =
    timed (fun () ->
        (Workload.generate ~seed ~tenants:serve_tenants ~kernels:serve_kernels
           ~launches:serve_schedule_len ~skew:serve_skew)
          .Workload.schedule)
  in
  { programs; launch_keys; kernel_keys; warm_dir; schedule; t_aot; t_capture;
    t_populate; t_gen }

(* ---- metric collection -------------------------------------------- *)

(* [value] as measured; [factor] the host factor of its phase. *)
type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int option;
  factor : float;
}

let metrics : metric list ref = ref []

let emit ?samples name unit_ value =
  metrics := { name; unit_; value; samples; factor = host_factor () } :: !metrics

(* Operation outcomes per kind, for attempted/failed and success_rate. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let note (t : tally) ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let self_ms spans name ~per =
  match Hashtbl.find_opt spans name with
  | Some (tot, _) -> tot *. 1e3 /. float_of_int (max 1 per)
  | None -> 0.0

let fisher_yates rng (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* ---- operation streams ------------------------------------------- *)

(* A stream produces one kind of operation a slice at a time: [step]
   runs one slice and says whether it closed a pass; [report] emits the
   stream's metrics. The named workload's stream has no quota and fills
   the window; the others are probes with a fixed number of slices. *)
type stream = {
  quota : int option;
  mutable slices : int;
  mutable busy : float; (* wall seconds spent in this stream's slices *)
  mutable closed : bool; (* the last slice closed a pass *)
  step : unit -> bool;
  report : unit -> unit;
}

let stream ?quota step report = { quota; slices = 0; busy = 0.0; closed = false; step; report }

(* Least share of the elapsed time the named workload's stream gets,
   however heavy the probes are on a slow host. *)
let main_min_share = 0.25

(* Run [main] for [seconds], interleaving each probe's slices evenly
   over the window: the probes' samples then spread over the whole run
   and see the same host as the main stream. After the window,
   the probes finish their quota and [main] runs on to the end of its
   current pass (and at least one), so every pass contributes the same
   operation mix. *)
let interleave ~(seconds : float) ~(main : stream) (probes : stream list) : unit =
  let t0 = wall () in
  let run s =
    calibrate ();
    let t = wall () in
    s.closed <- s.step ();
    s.slices <- s.slices + 1;
    s.busy <- s.busy +. (wall () -. t)
  in
  let rec go () =
    let elapsed = wall () -. t0 in
    let frac = elapsed /. seconds in
    let due p =
      match p.quota with
      | Some q -> p.slices < q && (frac >= 1.0 || float_of_int p.slices < frac *. float_of_int q)
      | None -> false
    in
    match List.find_opt due probes with
    | Some p when frac >= 1.0 || main.busy >= main_min_share *. elapsed ->
        run p;
        go ()
    | _ ->
        if frac < 1.0 || not main.closed then begin
          run main;
          go ()
        end
  in
  go ()

(* Walk [items] in passes, each pass in a fresh seeded order. *)
let passes_of rng (items : 'a array) =
  let order = ref [||] and cursor = ref 0 and passes = ref 0 in
  let next () =
    if !cursor = 0 then begin
      order := Array.copy items;
      fisher_yates rng !order
    end;
    let x = !order.(!cursor) in
    incr cursor;
    let closes = !cursor = Array.length items in
    if closes then begin
      cursor := 0;
      incr passes
    end;
    (x, closes)
  in
  (next, passes)

(* Latencies grouped by operation (compile key or program), one sample
   per repeat. A stream reports percentiles over operations of each
   operation's median, and its rate as operations over the sum of those
   medians: the throughput of one pass at typical speed. *)
let add_to (groups : (string, Sample.buf) Hashtbl.t) (op : string) (x : float) =
  let b =
    match Hashtbl.find_opt groups op with
    | Some b -> b
    | None ->
        let b = Sample.create () in
        Hashtbl.replace groups op b;
        b
  in
  Sample.add b x

let group_arrays groups = Hashtbl.fold (fun _ b acc -> Sample.to_array b :: acc) groups []

let emit_latencies ~prefix ~samples groups =
  let gs = group_arrays groups in
  emit ~samples (prefix ^ "_p50_ms") "ms" (Sample.percentile_of_medians gs 0.5);
  emit ~samples (prefix ^ "_p90_ms") "ms" (Sample.percentile_of_medians gs 0.9);
  let pass_ms = List.fold_left (fun acc g -> acc +. Sample.median g) 0.0 gs in
  emit (prefix ^ "s_per_s") "1/s" (float_of_int (List.length gs) *. 1e3 /. pass_ms)

(* ---- compiles ------------------------------------------------------ *)

(* Compiles that all miss: each pass compiles its key set once under a
   module id unique to the pass, so every insert writes a new entry. *)
let compile_stream ~(reference : reference) ~(dir : string) ~(seed : int) ?quota
    ~(keys : (ckey * int) list) (t : tally) : stream =
  let store = new_store (Some dir) in
  let lat = Sample.create () in
  let by_key = Hashtbl.create 128 in
  let next, passes = passes_of (Rng.create ((seed * 7919) + 1)) (Array.of_list keys) in
  let counts = ref (0, 0, 0, 0, 0) in
  let minor_words = ref 0.0 and major_gcs = ref 0 in
  let step () =
    let pass = !passes in
    let ((k : ckey), block), closes = next () in
    Span.set_request (Sample.length lat);
    let mid = Printf.sprintf "%s#%s#%d" k.c_mid (vendor_name k.c_vendor) pass in
    let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let c0 = now () in
    let c = compile_one store k ~block ~mid in
    let ms = (now () -. c0) *. 1e3 in
    Sample.add lat ms;
    add_to by_key (shape_key k.c_vendor k.c_sym block) ms;
    minor_words := !minor_words +. (Gc.minor_words () -. w0);
    major_gcs := !major_gcs + ((Gc.quick_stat ()).Gc.major_collections - g0);
    let want = Hashtbl.find_opt reference.shapes (shape_key k.c_vendor k.c_sym block) in
    note t (want = Some c.shape);
    if pass = 0 then begin
      let r, w, i, mi, sp = !counts in
      counts := (r + c.pass_runs, w + c.work, i + c.ir_out, mi + c.shape.minsts, sp + c.shape.spills)
    end;
    closes
  in
  let report () =
    let xs = Sample.to_array lat in
    emit_latencies ~prefix:"compile" ~samples:(Array.length xs) by_key;
    (* counts cover the first pass, so they repeat exactly *)
    let runs, work, ir, minsts, spills = !counts in
    emit "opt.pass_runs" "count" (float_of_int runs);
    emit "opt.work_units" "count" (float_of_int work);
    emit "opt.ir_insts_out" "count" (float_of_int ir);
    emit "backend.minsts" "count" (float_of_int minsts);
    emit "backend.spill_slots" "count" (float_of_int spills);
    let per_pass x = x /. float_of_int !passes in
    emit "ocaml.minor_mwords" "Mwords" (per_pass (!minor_words /. 1e6));
    emit "ocaml.major_gcs" "count" (per_pass (float_of_int !major_gcs));
    emit "trace.compile_mean_ms" "ms" (Sample.mean xs)
  in
  stream ?quota step report

(* Per-layer self times of the compiles, from their spans. *)
let compile_layers spans ~(keys : (ckey * int) list) ~(compiles : int) =
  let passes = compiles / List.length keys in
  let of_vendor v = passes * List.length (List.filter (fun ((k : ckey), _) -> k.c_vendor = v) keys) in
  let per name n = self_ms spans name ~per:n in
  emit "ir.decode_ms" "ms" (per "ir.decode" compiles);
  emit "proteus.specialize_ms" "ms" (per "proteus.specialize" compiles);
  let passes_ms =
    List.fold_left (fun acc p -> acc +. per ("opt.pass." ^ p) compiles) 0.0 pass_names
  in
  emit "opt.o3_ms" "ms" (per "opt.o3" compiles +. passes_ms);
  List.iter (fun p -> emit ("opt.pass." ^ p ^ "_ms") "ms" (per ("opt.pass." ^ p) compiles)) pass_names;
  emit "backend.gcn_ms" "ms" (per "backend.gcn" (of_vendor Device.Amd));
  emit "backend.ptx_emit_ms" "ms" (per "backend.ptx_emit" (of_vendor Device.Nvidia));
  emit "backend.ptxas_ms" "ms" (per "backend.ptxas" (of_vendor Device.Nvidia));
  emit "proteus.cache_insert_ms" "ms" (per "proteus.cache_insert" compiles);
  emit "gpu.tcode_decode_ms" "ms" (per "gpu.tcode_decode" compiles);
  emit "trace.compile_unattributed_ms" "ms" (per "proteus.compile" compiles)

(* ---- warm programs ------------------------------------------------- *)

(* Launch accounting across warm program runs. *)
type run_stats = {
  mutable disk_hits : int;
  mutable tcode_decodes : int;
  mutable tcode_hits : int;
  mutable warp_insts : int;
  mutable launch_s : float;
  first_launch : Sample.buf;
  hit_launch : Sample.buf;
}

(* One warm program run: a fresh simulated GPU and a fresh JIT over the
   populated persistent store, the program's host code end to end.
   Returns whether every check passed. *)
let program_run ~(reference : reference) ~(dir : Device.vendor -> string) (rs : run_stats)
    (p : program) : bool =
  Span.with_ "program" @@ fun () ->
  let rt = Gpurt.create (Device.by_vendor p.vendor) in
  ignore (Span.with_ "runtime.load_module" (fun () -> Gpurt.load_module rt p.exe.Driver.fatbin));
  let jit =
    Span.with_ "proteus.jit_create" (fun () ->
        Jit.create ~config:(config ~persistent_dir:(Some (dir p.vendor))) rt p.vendor)
  in
  let st = jit.Jit.stats in
  let hook h name args =
    if name <> Plugin.entry_point then Jit.host_hook jit h name args
    else begin
      let disk0 = st.Stats.disk_hits in
      let t0 = now () in
      let r = Span.with_ "proteus.launch" (fun () -> Jit.host_hook jit h name args) in
      let dt = now () -. t0 in
      rs.launch_s <- rs.launch_s +. dt;
      Sample.add (if st.Stats.disk_hits > disk0 then rs.first_launch else rs.hit_launch) dt;
      r
    end
  in
  let r = Span.with_ "runtime.hostexec" (fun () -> Hostexec.run ~extra:hook rt p.exe.Driver.host) in
  rs.disk_hits <- rs.disk_hits + st.Stats.disk_hits;
  rs.tcode_decodes <- rs.tcode_decodes + st.Stats.tcode_decodes;
  rs.tcode_hits <- rs.tcode_hits + st.Stats.tcode_hits;
  List.iter
    (fun (pr : Gpurt.profile) ->
      rs.warp_insts <- rs.warp_insts + pr.Gpurt.pcounters.Counters.warp_instrs)
    rt.Gpurt.profiles;
  let failed what =
    Printf.eprintf "perfbench: %s failed: %s\n%!" (program_key p.app p.vendor) what;
    false
  in
  match Hashtbl.find_opt reference.programs (program_key p.app p.vendor) with
  | None -> failed "no reference"
  | Some want ->
      if r.Hostexec.exit_code <> 0 then failed "exit code"
      else if not (p.app.App.check r.Hostexec.output) then failed "App.check"
      else if Digest.to_hex (Digest.string r.Hostexec.output) <> want.aot_md5 then
        failed "output differs from AOT"
      else if not (Float.equal r.Hostexec.end_to_end_s want.e2e_s) then
        failed (Printf.sprintf "end_to_end_s %h, reference %h" r.Hostexec.end_to_end_s want.e2e_s)
      else if not (Float.equal (Gpurt.total_kernel_time rt) want.kernel_s) then
        failed "kernel_time_s"
      else if st.Stats.compiles > 0 || st.Stats.fallbacks > 0 then
        failed "compiled or fell back on a warm cache"
      else true

let program_stream ~(reference : reference) ~(dir : Device.vendor -> string) ~(seed : int) ?quota
    ~(programs : program list) (t : tally) : stream =
  let rs =
    {
      disk_hits = 0; tcode_decodes = 0; tcode_hits = 0; warp_insts = 0; launch_s = 0.0;
      first_launch = Sample.create (); hit_launch = Sample.create ();
    }
  in
  let lat = Sample.create () in
  let by_program = Hashtbl.create 16 in
  let next, passes = passes_of (Rng.create ((seed * 104729) + 3)) (Array.of_list programs) in
  let step () =
    let p, closes = next () in
    Span.set_request (Sample.length lat);
    let p0 = now () in
    let ok = program_run ~reference ~dir rs p in
    let ms = (now () -. p0) *. 1e3 in
    Sample.add lat ms;
    add_to by_program (program_key p.app p.vendor) ms;
    note t ok;
    closes
  in
  let report () =
    emit_latencies ~prefix:"program" ~samples:(Sample.length lat) by_program;
    let per_pass x = float_of_int x /. float_of_int !passes in
    emit "proteus.disk_hits" "count" (per_pass rs.disk_hits);
    emit "gpu.tcode_decodes" "count" (per_pass rs.tcode_decodes);
    emit "gpu.sim_warp_insts" "count" (per_pass rs.warp_insts);
    emit "gpu.tcode_hit_ratio" "ratio"
      (float_of_int rs.tcode_hits /. float_of_int (max 1 (rs.tcode_hits + rs.tcode_decodes)));
    emit "gpu.exec_minsts_per_s" "M/s" (float_of_int rs.warp_insts /. rs.launch_s /. 1e6);
    let mean_ms b = Sample.sum b *. 1e3 /. float_of_int (max 1 (Sample.length b)) in
    emit ~samples:(Sample.length rs.first_launch) "proteus.first_launch_ms" "ms"
      (mean_ms rs.first_launch);
    emit ~samples:(Sample.length rs.hit_launch) "proteus.hit_launch_ms" "ms" (mean_ms rs.hit_launch)
  in
  stream ?quota step report

let program_layers spans ~(programs : int) =
  let per name = self_ms spans name ~per:programs in
  emit "proteus.jit_create_ms" "ms" (per "proteus.jit_create");
  emit "runtime.load_module_ms" "ms" (per "runtime.load_module");
  emit "runtime.hostexec_self_ms" "ms" (per "runtime.hostexec")

(* ---- serve --------------------------------------------------------- *)

(* One closed-loop client plays the schedule in order (cycling it) and
   times every Serve.launch. A slice is [serve_slice] launches; a
   session is a fresh Serve instance serving [serve_session] slices,
   checked and then dropped. Serve keeps a profile per launch, so one
   instance for the whole probe grew the heap by hundreds of MB and
   with it every later collection; sessions keep that bounded, and
   their slices spread over the window like the other probe's. The
   client runs on the main domain: a second shard domain would measure
   how the shared host schedules two busy cores, and would make every
   minor collection a stop-the-world across both domains. *)
type session = {
  sv : Serve.t;
  start : int; (* schedule index of its first launch *)
  mutable played : int; (* slices so far *)
}

let serve_slice = 1024
let serve_session = 16
let serve_chunk = 8 (* slices per launch_p95_us group: 8192 launches *)

(* Launch spans are kept for the first launches only, so a traced run's
   memory and trace file stay small. *)
let traced_launches = 10_000

let serve_stream ~(schedule : (int * int) array) ~quota (t : tally) : stream =
  let cfg = config ~persistent_dir:None in
  let len = Array.length schedule in
  let cursor = ref 0 and hits = ref 0 and sessions = ref 0 in
  let lat_us = Sample.create () and miss_ms = Sample.create () and hit_us = Sample.create () in
  (* the rate of each slice and the 95th percentile of every
     [serve_chunk] slices: their medians are what a slow spell, which
     hits a few slices, leaves alone. Not the 99th: it lies on the
     collection tail (p98 ~45 us, p99 ~90-110 us, p99.5 ~220 us), where
     it moved by a fifth between runs of the same code; the cost of
     collections shows in the slice rate. *)
  let slice_rate = Sample.create () and chunk_p95 = Sample.create () in
  (* per-session counters, summed over sessions *)
  let compiles = ref 0 and suppressed = ref 0 and contended = ref 0 and fallbacks = ref 0 in
  let profiles = ref 0 and warp = ref 0 in
  let current = ref None in
  (* correctness: each tenant's output equals a serial single-tenant
     replay of exactly the launches it made in the session; no
     fallback, no quarantined launch *)
  let close (ss : session) =
    for tn = 0 to serve_tenants - 1 do
      let mine =
        Array.of_list
          (List.filter
             (fun (tn', _) -> tn' = tn)
             (List.init (!cursor - ss.start) (fun i -> schedule.((ss.start + i) mod len))))
      in
      let st = Serve.stats ss.sv ~tenant:tn in
      let ok =
        st.Stats.fallbacks = 0
        && st.Stats.quarantined_launches = 0
        && Serve.output ss.sv ~tenant:tn = Serve.replay_output ~config:cfg ss.sv ~tenant:tn mine
      in
      Array.iter (fun _ -> note t ok) mine;
      compiles := !compiles + st.Stats.compiles;
      suppressed := !suppressed + st.Stats.flight_suppressed;
      fallbacks := !fallbacks + st.Stats.fallbacks;
      List.iter
        (fun (p : Gpurt.profile) ->
          incr profiles;
          warp := !warp + p.Gpurt.pcounters.Counters.warp_instrs)
        (Serve.jit ss.sv ~tenant:tn).Jit.rt.Gpurt.profiles
    done;
    contended := !contended + (Serve.store ss.sv).Cachestore.lock_contended;
    incr sessions;
    current := None
  in
  let step () =
    let ss =
      match !current with
      | Some ss -> ss
      | None ->
          let sv =
            Serve.create ~config:cfg ~vendor:Device.Amd ~tenants:serve_tenants
              ~kernels:serve_kernels ()
          in
          let ss = { sv; start = !cursor; played = 0 } in
          current := Some ss;
          ss
    in
    let s0 = now () in
    for _ = 1 to serve_slice do
      let tn, k = schedule.(!cursor mod len) in
      let st = Serve.stats ss.sv ~tenant:tn in
      let hits0 = st.Stats.mem_hits in
      let l0 = now () in
      if !Span.enabled && !cursor < traced_launches then begin
        Span.set_request !cursor;
        Span.with_ "serve.launch" (fun () -> Serve.launch ss.sv ~tenant:tn ~kernel:k)
      end
      else Serve.launch ss.sv ~tenant:tn ~kernel:k;
      let dt = now () -. l0 in
      Sample.add lat_us (dt *. 1e6);
      if st.Stats.mem_hits > hits0 then begin
        incr hits;
        Sample.add hit_us (dt *. 1e6)
      end
      else Sample.add miss_ms (dt *. 1e3);
      incr cursor
    done;
    Sample.add slice_rate (float_of_int serve_slice /. (now () -. s0));
    if Sample.length slice_rate mod serve_chunk = 0 then
      Sample.add chunk_p95 (Sample.percentile (Sample.last lat_us (serve_chunk * serve_slice)) 0.95);
    ss.played <- ss.played + 1;
    if ss.played = serve_session then close ss;
    true
  in
  let report () =
    let all_lat = Sample.to_array lat_us in
    let n = Array.length all_lat in
    emit ~samples:n "launch_p50_us" "us" (Sample.percentile all_lat 0.5);
    emit ~samples:(Sample.length chunk_p95 * serve_chunk * serve_slice) "launch_p95_us" "us"
      (Sample.median (Sample.to_array chunk_p95));
    emit ~samples:(Sample.length slice_rate) "launches_per_s" "1/s"
      (Sample.median (Sample.to_array slice_rate));
    let mean b = if Sample.length b = 0 then 0.0 else Sample.sum b /. float_of_int (Sample.length b) in
    emit ~samples:(Sample.length hit_us) "proteus.hit_launch_us" "us" (mean hit_us);
    emit ~samples:(Sample.length miss_ms) "proteus.miss_launch_ms" "ms" (mean miss_ms);
    emit "proteus.hit_ratio" "ratio" (float_of_int !hits /. float_of_int n);
    let per_session x = float_of_int x /. float_of_int (max 1 !sessions) in
    emit "proteus.compiles" "count" (per_session !compiles);
    emit "proteus.flight_suppressed" "count" (per_session !suppressed);
    emit "proteus.lock_contended" "count" (per_session !contended);
    emit "proteus.fallbacks" "count" (per_session !fallbacks);
    emit "runtime.profiles_retained" "count" (per_session !profiles);
    emit "gpu.serve_sim_warp_insts" "count" (per_session !warp)
  in
  stream ~quota step report

(* ---- output -------------------------------------------------------- *)

let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let end_to_end_names =
  [ "setup_s"; "success_rate"; "peak_rss_mb"; "compile_p50_ms"; "compile_p90_ms";
    "compiles_per_s"; "program_p50_ms"; "program_p90_ms"; "programs_per_s";
    "launch_p50_us"; "launch_p95_us"; "launches_per_s" ]

(* A metric at reference speed: times divided by its phase's host
   factor, rates multiplied by it; counts, ratios and sizes as
   measured. *)
let at_ref_speed m =
  match m.unit_ with
  | "s" | "ms" | "us" -> m.value /. m.factor
  | "1/s" | "M/s" -> m.value *. m.factor
  | _ -> m.value

let print_result ~trace (tallies : tally list) =
  let ms = List.rev !metrics in
  Printf.printf "host factor: a phase's calibration median over %.4f ms, the reference\n"
    calib_ref_ms;
  Printf.printf "%-32s %14s %-7s %14s %7s\n" "metric" "at ref. speed" "unit" "as measured" "factor";
  List.iter
    (fun m ->
      Printf.printf "%-32s %14.6f %-7s %14.6f %7.4f%s\n" m.name (at_ref_speed m) m.unit_ m.value
        m.factor
        (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    ms;
  (* the untraced run reports the end-to-end metrics, the traced run
     the per-layer ones *)
  let wanted m = if trace then not (List.mem m.name end_to_end_names) else List.mem m.name end_to_end_names in
  let attempted = List.fold_left (fun acc t -> acc + t.attempted) 0 tallies in
  let failed = List.fold_left (fun acc t -> acc + t.failed) 0 tallies in
  let body =
    List.filter wanted ms
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name (at_ref_speed m) m.unit_)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

(* ---- main ---------------------------------------------------------- *)

let setups = 3

(* Probe sizes: ten passes over the 22 launched specializations, five
   passes of the twelve programs, 128 serve slices (131 072 launches in
   8 sessions). *)
let compile_probe_passes = 10
let program_probe_passes = 5
let serve_probe_slices = 128

let out_dir = ".perfbench"

let run ~workload ~seed ~seconds ~trace =
  check_env ();
  Proteus_support.Util.mkdir_p out_dir;
  let reference = load_reference "perfbench/reference.txt" in
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Proteus_support.Util.mkdir_p dir;
  new_phase ();
  let all_setups = List.init setups (fun _ -> do_setup ~dir:(Filename.concat dir "warm") ~seed) in
  let s = List.nth all_setups (setups - 1) in
  let med f = Sample.median (Array.of_list (List.map f all_setups)) in
  emit ~samples:setups "setup_s" "s"
    (med (fun s -> s.t_aot +. s.t_capture +. s.t_populate +. s.t_gen));
  emit "driver.aot_build_ms" "ms" (med (fun s -> s.t_aot *. 1e3));
  emit "setup.capture_s" "s" (med (fun s -> s.t_capture));
  emit "setup.warm_populate_s" "s" (med (fun s -> s.t_populate));
  emit "setup.workload_gen_s" "s" (med (fun s -> s.t_gen));
  let ct = tally () and pt = tally () and st = tally () in
  if trace then Span.enable ();
  let quota w n = if w = workload then None else Some n in
  (* jit-compile: every JIT kernel at every launch-bound block size;
     the probe: each launched specialization *)
  let compile_keys =
    if workload = "jit-compile" then
      List.concat_map (fun k -> List.map (fun b -> (k, b)) block_sizes) s.kernel_keys
    else List.map (fun k -> (k, k.c_block)) s.launch_keys
  in
  let compiles =
    compile_stream ~reference ~dir:(Filename.concat dir "compile") ~seed
      ?quota:(quota "jit-compile" (compile_probe_passes * List.length compile_keys))
      ~keys:compile_keys ct
  in
  let programs =
    program_stream ~reference ~dir:s.warm_dir ~seed
      ?quota:(quota "hecbench-warm" (program_probe_passes * List.length s.programs))
      ~programs:s.programs pt
  in
  (* the window starts from a collected heap: earlier garbage is not
     collected on its clock *)
  Gc.compact ();
  new_phase ();
  let serve = serve_stream ~schedule:s.schedule ~quota:serve_probe_slices st in
  let main, probe = if workload = "jit-compile" then (compiles, programs) else (programs, compiles) in
  interleave ~seconds ~main [ probe; serve ];
  List.iter (fun s -> s.report ()) [ compiles; programs; serve ];
  if trace then begin
    let spans = Span.all () in
    let by_name = Span.self_by_name spans in
    compile_layers by_name ~keys:compile_keys ~compiles:ct.attempted;
    program_layers by_name ~programs:pt.attempted;
    emit "trace.spans_dropped" "count" (float_of_int (Span.dropped ()));
    Span.write_chrome_trace (Filename.concat out_dir (Printf.sprintf "trace-%s.json" workload)) spans
  end;
  let tallies = [ ct; pt; st ] in
  let rate (t : tally) = 1.0 -. (float_of_int t.failed /. float_of_int (max 1 t.attempted)) in
  emit "success_rate" "ratio" (List.fold_left (fun acc t -> Float.min acc (rate t)) 1.0 tallies);
  emit "peak_rss_mb" "MB" (peak_rss_mb ());
  emit "ocaml.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  print_result ~trace tallies

(* ---- reference recording ------------------------------------------- *)

(* Shapes come from the JIT's own [Jit.compile_specialization]; program
   references from the library harness: the AOT output and the
   simulated times of a Proteus run over a warm persistent cache. *)
let record path =
  check_env ();
  Proteus_support.Util.mkdir_p out_dir;
  (* the library harness keeps its throwaway caches in the temp dir *)
  Filename.set_temp_dir_name out_dir;
  let programs = aot_build () in
  let lines = Buffer.create 4096 in
  let recorded = Hashtbl.create 128 in
  Buffer.add_string lines "# perfbench reference: regenerate with `bench.exe --record FILE`\n";
  List.iter
    (fun p ->
      (* a fresh context of the program lays its device globals out at
         the addresses the capture resolved *)
      let rt = Gpurt.create (Device.by_vendor p.vendor) in
      ignore (Gpurt.load_module rt p.exe.Driver.fatbin);
      let jit = Jit.create ~config:(config ~persistent_dir:None) rt p.vendor in
      List.iter
        (fun k ->
          List.iter
            (fun block ->
              let obj =
                Jit.compile_specialization jit ~bitcode:k.c_bitcode ~sym:k.c_sym
                  ~spec_values:k.c_spec ~block
              in
              let mf = Mach.find_kernel obj k.c_sym in
              let sk = shape_key k.c_vendor k.c_sym block in
              (* one specialization per kernel keeps the key unique *)
              if Hashtbl.mem recorded sk then failwith ("perfbench: two specializations for " ^ sk);
              Hashtbl.replace recorded sk ();
              Printf.bprintf lines "compile %s %d %d %d %d\n" sk (Mach.instr_count mf)
                mf.Mach.vregs mf.Mach.sregs mf.Mach.spill_slots)
            (List.sort_uniq compare (k.c_block :: block_sizes)))
        (capture p))
    programs;
  List.iter
    (fun p ->
      let aot = Harness.run p.app p.vendor Harness.AOT in
      let warm = Harness.run ~config:(config ~persistent_dir:None) p.app p.vendor Harness.Proteus_warm in
      if not (aot.Harness.ok && warm.Harness.ok) then
        failwith ("perfbench: reference run failed: " ^ p.app.App.name);
      Printf.bprintf lines "program %s %h %h %s\n" (program_key p.app p.vendor) warm.Harness.e2e_s
        warm.Harness.kernel_s
        (Digest.to_hex (Digest.string aot.Harness.output)))
    programs;
  let oc = open_out path in
  Buffer.output_buffer oc lines;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let record_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME jit-compile|hecbench-warm");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time of the named workload");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with the span recorder on");
      ("--record", Arg.Set_string record_to, "FILE write the reference file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record_to <> "" then record !record_to
  else if List.mem !workload [ "jit-compile"; "hecbench-warm" ] then
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  else begin
    prerr_endline "bench.exe: --workload must be jit-compile or hecbench-warm";
    exit 2
  end
