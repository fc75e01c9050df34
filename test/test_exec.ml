(* Executor tests. The retired reference interpreter's observations are
   pinned in golden files recorded from it (test/corpus/exec/): per-launch
   profiles - every counter plus the Timing report - with a digest of
   the observable memory or program output, for the six HeCBench apps x
   both vendors and eight fixed launches of a divergent kernel, and one
   per-site transaction table. The serial threaded schedule and the
   multicore schedule must both reproduce them exactly. Kernels with
   atomics, and profiled launches, must take the serial schedule, and a
   construct the decoder cannot run traps only when it is reached. *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_hecbench

let check = Alcotest.check
let qtest = Qseed.qtest

let compile_kernel ?(vendor = Device.Amd) src sym =
  let fe_vendor =
    match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda
  in
  let m = (Compile.compile ~vendor:fe_vendor src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let obj =
    match vendor with
    | Device.Amd -> Gcn.compile m
    | Device.Nvidia -> Ptxas.compile ~globals:m.Ir.globals (Ptx.emit m)
  in
  Mach.find_kernel obj sym

type schedule = Threaded | Multicore

let domains_of = function Threaded -> 1 | Multicore -> 4
let schedule_name = function Threaded -> "threaded" | Multicore -> "multicore"

(* ---- golden files ---- *)

let corpus_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "corpus/exec" name; Filename.concat "test/corpus/exec" name ]
  |> Option.value ~default:(Filename.concat "corpus/exec" name)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* profiles.golden: "P<id> <profile>" lines define the distinct launch
   profiles; every other line is a block header ("point a=.. n=.. mem=.."
   or "app NAME VENDOR out=.. e2e=.. launches=N") followed by "seq <id>..",
   its launches in order. Blocks are keyed by the header's first three
   words. *)
let golden =
  lazy
    (let ids = Hashtbl.create 64 and blocks = ref [] in
     List.iter
       (fun l ->
         match String.index_opt l ' ' with
         | Some i when l.[0] = 'P' ->
             Hashtbl.replace ids (String.sub l (i + 1) (String.length l - i - 1))
               (String.sub l 1 (i - 1))
         | _ when String.starts_with ~prefix:"seq " l -> (
             match !blocks with
             | (k, h) :: rest -> blocks := (k, h ^ "\n" ^ l) :: rest
             | [] -> Alcotest.fail "profiles.golden: seq before a header")
         | _ ->
             let key =
               match String.split_on_char ' ' l with
               | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
               | _ -> l
             in
             blocks := (key, l) :: !blocks)
       (read_lines (corpus_file "profiles.golden"));
     (ids, !blocks))

let golden_block key =
  match List.assoc_opt key (snd (Lazy.force golden)) with
  | Some b -> b
  | None -> Alcotest.failf "profiles.golden has no block %S" key

(* A run in the golden block format; a profile missing from the golden
   table is spelled out in full so a mismatch shows it. *)
let render_block header profiles =
  let ids = fst (Lazy.force golden) in
  header ^ "\nseq "
  ^ String.concat " "
      (List.map
         (fun p -> match Hashtbl.find_opt ids p with Some id -> id | None -> "{" ^ p ^ "}")
         profiles)

(* One launch profile: every counter, then the timing report with
   floats in exact hex. *)
let profile sym (c : Counters.t) (r : Timing.report) =
  let ints =
    Counters.
      [ c.valu_warp; c.valu_thread; c.salu; c.math_warp; c.vmem_warp;
        c.vmem_thread; c.smem; c.scratch_ld; c.scratch_st; c.spill_ld;
        c.spill_st; c.atomics; c.branches; c.warp_instrs; c.threads; c.warps;
        c.l2_hits; c.l2_misses; c.mem_lines ]
  in
  Printf.sprintf "%s %s %h %h %h %h %d %h %h %h" sym
    (String.concat " " (List.map string_of_int ints))
    r.Timing.duration_s r.Timing.cycles r.Timing.compute_cycles
    r.Timing.mem_cycles r.Timing.waves_per_cu r.Timing.ipc r.Timing.valu_busy
    r.Timing.stall_frac

(* ---- kernel-level profiles ---- *)

(* Divergent control flow, f64 and f32 arithmetic, transcendentals and
   integer bit-twiddling - enough surface to shake out any engine
   disagreement. *)
let diff_kernel_src =
  {|__global__ void f(double* out, float* tmp, double a, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i < n) {
        double x = a * (double)i;
        float s = (float)x;
        for (int j = 0; j < 5; j++) {
          if (((i >> j) & 1) == 1) { x = x + sqrt(fabs(x) + 1.0); s = s * 1.5f; }
          else { x = x * 0.5 + (double)(j * i); }
        }
        tmp[i] = s;
        out[i] = x + (double)s;
      }
    }|}

let diff_kernel = lazy (compile_kernel diff_kernel_src "f")

(* Launch [diff_kernel] for point (a, n) under one schedule; returns the
   golden-format block and the engine used. *)
let diff_run sched (a, n) =
  let k = Lazy.force diff_kernel in
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let buf_bytes = (n * 8) + (n * 4) in
  let buf = Gmem.alloc mem buf_bytes in
  let r =
    Exec.launch ~domains:(domains_of sched) ~device:dev ~mem ~l2
      ~symbols:(fun _ -> 0L) k ~grid:((n + 63) / 64) ~block:64
      ~args:
        [| Konst.kint ~bits:64 buf;
           Konst.kint ~bits:64 (Int64.add buf (Int64.of_int (n * 8)));
           Konst.kf64 a; Konst.ki32 n |]
  in
  let snap =
    String.init buf_bytes (fun i ->
        Char.chr (Gmem.read_u8 mem (Int64.add buf (Int64.of_int i))))
  in
  let rep = Timing.kernel_time dev k r.Exec.counters ~blocks:r.Exec.blocks_launched in
  ( render_block
      (Printf.sprintf "point a=%h n=%d mem=%s" a n (Digest.to_hex (Digest.string snap)))
      [ profile k.Mach.sym r.Exec.counters rep ],
    r.Exec.engine )

let diff_points =
  [ (-7.5, 65); (-3.25, 100); (-1.0, 128); (0.0, 129); (0.5, 191);
    (1.5, 256); (3.75, 257); (7.875, 300) ]

let test_diff_golden sched () =
  List.iter
    (fun (a, n) ->
      let got, engine = diff_run sched (a, n) in
      check Alcotest.string "engine" (schedule_name sched) engine;
      check Alcotest.string
        (Printf.sprintf "%s a=%g n=%d" (schedule_name sched) a n)
        (golden_block (Printf.sprintf "point a=%h n=%d" a n))
        got)
    diff_points

let qcheck_schedules_bit_identical =
  QCheck.Test.make ~name:"threaded = multicore on random launches" ~count:20
    QCheck.(pair (float_range (-8.0) 8.0) (int_range 65 300))
    (fun p ->
      let b1, e1 = diff_run Threaded p and b2, e2 = diff_run Multicore p in
      e1 = "threaded" && e2 = "multicore" && b1 = b2)

let run_count_kernel ?sites ~domains () =
  let k =
    compile_kernel
      {|__global__ void count(float* acc, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { atomicAdd(acc, 1.0f); }
        }|}
      "count"
  in
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let acc = Gmem.alloc mem 8 in
  Gmem.write_f32 mem acc 0.0;
  let r =
    Exec.launch ?sites ~domains ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k
      ~grid:4 ~block:64 ~args:[| Konst.kint ~bits:64 acc; Konst.ki32 200 |]
  in
  (r.Exec.engine, Gmem.read_f32 mem acc)

let test_atomics_take_serial_fallback () =
  (* 4 domains requested, grid of 4 blocks: parallelizable in shape,
     but the atomic forces the serial threaded engine *)
  let engine, sum = run_count_kernel ~domains:4 () in
  check Alcotest.string "atomics stay serial" "threaded" engine;
  check (Alcotest.float 0.0) "atomic sum" 200.0 sum

let test_parallel_safe_goes_multicore () =
  let _, engine = diff_run Multicore (1.5, 256) in
  check Alcotest.string "atomic-free kernel parallelizes" "multicore" engine

(* ---- per-site profiling ---- *)

let sites_src =
  {|__global__ void sites(float* out, const float* in, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      int t = threadIdx.x;
      int tmp[4];
      for (int j = 0; j < 4; j++) { tmp[j] = t * 10 + j; }
      float s = in[0];
      if (i < n) {
        out[2 * i] = in[i] * s + (float)tmp[3 - (t % 4)];
      }
    }|}

let kind_name = function
  | Counters.Kload -> "load"
  | Counters.Kstore -> "store"
  | Counters.Katomic -> "atomic"

let render_sites (tbl : Counters.site_table) =
  Hashtbl.fold
    (fun (k : Counters.site_key) (s : Counters.site) acc ->
      Printf.sprintf
        "site %s %s %d %s issues=%d lanes=%d lines=%d full=%d/%d/%d width=%d scratch=%b"
        k.Counters.sk_sym k.Counters.sk_block k.Counters.sk_ord
        (kind_name k.Counters.sk_kind) s.Counters.s_issues s.Counters.s_lanes
        s.Counters.s_lines s.Counters.s_full_issues s.Counters.s_full_lanes
        s.Counters.s_full_lines s.Counters.s_width s.Counters.s_scratch
      :: acc)
    tbl []
  |> List.sort compare

let test_sites_golden () =
  let k = compile_kernel sites_src "sites" in
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let n = 100 in
  let inb = Gmem.alloc mem (n * 4) and outb = Gmem.alloc mem (n * 8) in
  for i = 0 to n - 1 do
    Gmem.write_f32 mem (Int64.add inb (Int64.of_int (i * 4))) (float_of_int i)
  done;
  let tbl = Counters.create_sites () in
  let r =
    Exec.launch ~sites:tbl ~domains:4 ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k
      ~grid:2 ~block:64
      ~args:[| Konst.kint ~bits:64 outb; Konst.kint ~bits:64 inb; Konst.ki32 n |]
  in
  check Alcotest.string "a profiled launch runs serially" "threaded" r.Exec.engine;
  check
    Alcotest.(list string)
    "every site key and field" (read_lines (corpus_file "sites.golden"))
    (render_sites tbl);
  (* the atomic site of a serial-only kernel is keyed and counted too *)
  let tbl = Counters.create_sites () in
  let engine, _ = run_count_kernel ~sites:tbl ~domains:4 () in
  check Alcotest.string "engine" "threaded" engine;
  let atomics =
    Hashtbl.fold
      (fun (k : Counters.site_key) (s : Counters.site) acc ->
        if k.Counters.sk_kind = Counters.Katomic then
          (s.Counters.s_issues, s.Counters.s_lanes, s.Counters.s_width) :: acc
        else acc)
      tbl []
  in
  (* 200 active threads over 4 warps of 64: issues from 4 warps (the
     last with 8 live lanes), one 4-byte atomic each *)
  check
    Alcotest.(list (triple int int int))
    "atomic site" [ (4, 200, 4) ] atomics

(* ---- trap on execute ---- *)

(* A hand-built kernel: [entry] branches on a false constant to [dead]
   (never taken) or [done]; [query_in_entry] puts the bad query in the
   entry block itself. *)
let trap_kernel ~query_in_entry =
  let reg rid = { Mach.rid; rcls = Mach.CV } in
  let bad = { Mach.op = Mach.Oquery "gpu.bogus.x"; dst = Some (reg 0); srcs = [] } in
  let blocks =
    [
      {
        Mach.mlab = "entry";
        code = (if query_in_entry then [ bad ] else []);
        term = Mach.Tcbr (Mach.Ki (Konst.KBool false), "dead", "done");
      };
      { Mach.mlab = "dead"; code = [ bad ]; term = Mach.Tbr "done" };
      { Mach.mlab = "done"; code = []; term = Mach.Tret };
    ]
  in
  {
    Mach.sym = "trap";
    blocks;
    params = [];
    arg_tys = [];
    vregs = 1;
    sregs = 0;
    frame = 0;
    spill_slots = 0;
    launch_bounds = None;
    max_pressure_v = 0;
    max_pressure_s = 0;
  }

let launch_trap_kernel k =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  Exec.launch ~domains:1 ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:2
    ~block:64 ~args:[||]

let test_trap_unreached () =
  let r = launch_trap_kernel (trap_kernel ~query_in_entry:false) in
  check Alcotest.int "both warps ran" 2 r.Exec.counters.Counters.warps

let test_trap_reached () =
  match launch_trap_kernel (trap_kernel ~query_in_entry:true) with
  | _ -> Alcotest.fail "reached unknown query did not trap"
  | exception Exec.Trap msg ->
      check Alcotest.string "trap message" "unknown query gpu.bogus.x" msg

(* ---- whole applications: the full HeCBench suite ---- *)

(* Run an app end to end (AOT-compiled, so only the executor varies)
   under one schedule and render it in the golden format: program
   output digest, simulated wall clock, and every launch's profile in
   launch order. *)
let app_run (a : App.t) vendor sched =
  let exe = Harness.compile_app a vendor Proteus_driver.Driver.Aot in
  let rt = Gpurt.create (Device.by_vendor vendor) in
  rt.Gpurt.exec_domains <- (match sched with Threaded -> 1 | Multicore -> 8);
  let _lm = Gpurt.load_module rt exe.Proteus_driver.Driver.fatbin in
  let res = Hostexec.run rt exe.Proteus_driver.Driver.host in
  render_block
    (Printf.sprintf "app %s %s out=%s e2e=%h launches=%d" a.App.name
       (match vendor with Device.Amd -> "amd" | Device.Nvidia -> "nvidia")
       (Digest.to_hex (Digest.string res.Hostexec.output))
       res.Hostexec.end_to_end_s
       (List.length rt.Gpurt.profiles))
    (List.rev_map
       (fun (p : Gpurt.profile) -> profile p.Gpurt.psym p.Gpurt.pcounters p.Gpurt.preport)
       rt.Gpurt.profiles)

let app_golden (a : App.t) () =
  List.iter
    (fun vendor ->
      let key =
        Printf.sprintf "app %s %s" a.App.name
          (match vendor with Device.Amd -> "amd" | Device.Nvidia -> "nvidia")
      in
      List.iter
        (fun sched ->
          check Alcotest.string
            (Printf.sprintf "%s %s" key (schedule_name sched))
            (golden_block key) (app_run a vendor sched))
        [ Threaded; Multicore ])
    [ Device.Amd; Device.Nvidia ]

let () =
  Alcotest.run "exec-differential"
    [
      ( "engines",
        [
          qtest qcheck_schedules_bit_identical;
          Alcotest.test_case "atomics take the serial fallback" `Quick
            test_atomics_take_serial_fallback;
          Alcotest.test_case "atomic-free kernels parallelize" `Quick
            test_parallel_safe_goes_multicore;
          Alcotest.test_case "threaded matches the golden profiles" `Quick
            (test_diff_golden Threaded);
          Alcotest.test_case "multicore matches the golden profiles" `Quick
            (test_diff_golden Multicore);
          Alcotest.test_case "site table matches the golden" `Quick test_sites_golden;
        ] );
      ( "trap",
        [
          Alcotest.test_case "unknown query in a dead block is inert" `Quick
            test_trap_unreached;
          Alcotest.test_case "unknown query in the entry block traps" `Quick
            test_trap_reached;
        ] );
      ( "hecbench",
        List.map
          (fun (a : App.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s: 2 engines agree" a.App.name)
              `Quick (app_golden a))
          Suite.apps );
    ]
