(* The campaign workload: Table 1 crash tests, one [Campaign.run_one] per
   op. Every attempt boots a fresh world (no template), runs memTest and
   background Andrew steps with interpreted kernel activity in between,
   injects 20 faults, runs until the crash or the watchdog, and recovers
   by warm reboot or fsck. memTest's file-system steps and the
   interpreter dominate; template restore plays no part. *)

module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type
module Injector = Rio_fault.Injector
module Kernel = Rio_kernel.Kernel
module Kcrash = Rio_kernel.Kcrash
module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Fsck = Rio_fs.Fsck
module Machine = Rio_cpu.Machine
module Layout = Rio_mem.Layout
module Phys_mem = Rio_mem.Phys_mem
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Memtest = Rio_workload.Memtest
module Andrew = Rio_workload.Andrew
module Script = Rio_workload.Script
module Prng = Rio_util.Prng
module Pattern = Rio_util.Pattern
module World = Rio_world.World

let config = Campaign.default_config

(* Fault-major, so any three consecutive attempts cover the three systems. *)
let cells =
  Array.of_list
    (List.concat_map (fun f -> List.map (fun s -> (s, f)) Campaign.all_systems) Fault_type.all)

(* Laid out like Table 1's cell seeds (system x 1e6 + fault x 1e4 +
   attempt), over a base that keeps two benchmark seeds from sharing any
   trial. *)
let trial_seed ~seed (system, fault) attempt =
  let sys_id =
    match system with
    | Campaign.Disk_based -> 1
    | Campaign.Rio_without_protection -> 2
    | Campaign.Rio_with_protection -> 3
  in
  (seed * 10_000_000) + (sys_id * 1_000_000) + (Fault_type.id fault * 10_000) + attempt

(* The [k]th input of a run: round-robin over cells, so any prefix of the
   sequence covers every cell within one. Every op of a run is a distinct
   trial: a trial's time depends on its outcome (discarded, or crashed
   early or late), and on a 2-core KVM guest the throughput of 312 trials
   repeated for 30 s spread 6.2% over ten seeds, where ten runs of one
   seed spread 3.9%. *)
let input ~seed k =
  let cell = cells.(k mod Array.length cells) in
  (cell, trial_seed ~seed cell (1 + (k / Array.length cells)))

(* Runs [op k] for k = 0, 1, ... until [seconds] have passed (at least one
   op), or for the first three inputs in a smoke run. Returns the count. *)
let stream ~seconds ~smoke op =
  let t0 = Meter.now () in
  let more k = if smoke then k < 3 else k = 0 || Meter.now () -. t0 < seconds in
  let rec go k = if more k then (op k; go (k + 1)) else k in
  go 0

(* The outcome fields the composed trial must reproduce. *)
type key = {
  discarded : bool;
  crash_message : string option;
  corrupted : bool;
  corrupt_paths : int;
  sim_time_us : int;
}

let key_of (o : Campaign.outcome) =
  {
    discarded = o.Campaign.discarded;
    crash_message = o.Campaign.crash_message;
    corrupted = o.Campaign.corrupted;
    corrupt_paths = o.Campaign.corrupt_paths;
    sim_time_us = o.Campaign.sim_time_us;
  }

let attempt ((system, fault), seed) =
  match Campaign.run_one config system fault ~seed with
  | o -> Ok (key_of o)
  | exception e -> Error (Printexc.to_string e)

(* The untimed warm-up op: the same trial at every seed, so set-up time
   does not vary with the seed's trial mix. *)
let warmup () =
  let cell = (Campaign.Rio_with_protection, Fault_type.Kernel_text) in
  ignore (attempt (cell, trial_seed ~seed:0 cell 9_000))

(* One timed round of distinct trials. After it, the first trial of every
   cell runs again, untimed, and must repeat its outcome. *)
let run ~setup ~seed ~seconds ~smoke =
  let times = Meter.recorder () and results = Hashtbl.create 4096 and failed = ref 0 in
  let fail inp why =
    incr failed;
    Printf.eprintf "campaign: run_one seed %d %s\n%!" (snd inp) why
  in
  let attempted =
    stream ~seconds ~smoke (fun k ->
        let inp = input ~seed k in
        let r = Meter.timed_op times (fun () -> attempt inp) in
        Hashtbl.replace results k r;
        match r with Error msg -> fail inp ("raised " ^ msg) | Ok _ -> ())
  in
  let rounds = [ Meter.finish times ] in
  for k = 0 to min attempted (Array.length cells) - 1 do
    let inp = input ~seed k in
    match (Hashtbl.find results k, attempt inp) with
    | Ok a, Ok b when a <> b -> fail inp "did not repeat its outcome"
    | _ -> ()
  done;
  Meter.timed ~setup ~rounds ~attempted ~failed:!failed []

(* ---------------- the traced composition ---------------- *)

(* [Campaign.run_one], step for step, through the same public calls, with
   a span around each call into a layer. It must reproduce the untraced
   outcome exactly; any drift makes its per-layer numbers worthless. *)

let static_seed = 0x57A7

let make_static_files fs =
  Fs.mkdir fs "/static";
  let data = Pattern.fill ~seed:static_seed ~len:24_000 in
  Fs.write_file fs "/static/copy-a" data;
  Fs.write_file fs "/static/copy-b" data

let static_files_match fs =
  match (Fs.read_file fs "/static/copy-a", Fs.read_file fs "/static/copy-b") with
  | a, b -> Bytes.equal a b && Bytes.equal a (Pattern.fill ~seed:static_seed ~len:24_000)
  | exception Fs_types.Fs_error _ -> false

let make_rio kernel ~protection =
  ignore
    (Rio_cache.create ~mem:(Kernel.mem kernel) ~layout:(Kernel.layout kernel)
       ~mmu:(Kernel.mmu kernel) ~engine:(Kernel.engine kernel) ~costs:(Kernel.costs kernel)
       ~hooks:(Kernel.hooks kernel) ~pool_alloc:(Kernel.pool_alloc kernel) ~protection ~dev:1 ()
      : Rio_cache.t)

let compose sp system fault ~seed =
  let span name fn = Spans.span sp name fn in
  let trial_mems = ref [] in
  let policy, protection, fsync_writes =
    match system with
    | Campaign.Disk_based -> (Fs.Ufs_default, None, true)
    | Campaign.Rio_without_protection -> (Fs.Rio_policy, Some false, false)
    | Campaign.Rio_with_protection -> (Fs.Rio_policy, Some true, false)
  in
  let w =
    span "world.create" (fun () ->
        World.create ~config:config.Campaign.kernel_config ~rio:(protection <> None)
          ~protection:(protection = Some true) ~policy ~seed ())
  in
  let engine = World.engine w and costs = World.costs w and kcfg = World.config w in
  let kernel = World.kernel w and fs = World.fs w in
  let machine = Kernel.machine kernel in
  let instr0 = Machine.instructions_retired machine in
  span "workload.static" (fun () -> make_static_files fs);
  let mt_config =
    {
      Memtest.default_config with
      Memtest.seed = seed lxor 0x77;
      max_files = config.Campaign.memtest_files;
      max_file_bytes = config.Campaign.memtest_file_bytes;
      fsync_every_write = fsync_writes;
    }
  in
  let mt = Memtest.create mt_config in
  let andrews =
    List.init config.Campaign.background_andrew (fun i ->
        Andrew.runner
          (Andrew.create ~scale:config.Campaign.andrew_scale ~seed:(200 + i)
             ~root:(Printf.sprintf "/bg%d" i) ()))
  in
  let one_step () =
    span "workload.memtest" (fun () -> Memtest.step mt ~fs ());
    List.iter (fun r -> span "workload.andrew" (fun () -> ignore (Script.step r fs))) andrews;
    for _ = 1 to config.Campaign.activity_per_step do
      span "kernel.activity" (fun () -> Kernel.run_activity kernel)
    done
  in
  for _ = 1 to config.Campaign.warmup_steps do
    one_step ()
  done;
  span "fault.inject" (fun () ->
      Injector.inject_many kernel ~prng:(Prng.create ~seed:(seed lxor 0xFA17)) fault
        ~count:config.Campaign.faults_per_run);
  (* The same store watch [run_one] installs, so the interpreter pays the
     same per-store cost. *)
  let wild_stores = ref 0 in
  let layout = Kernel.layout kernel in
  let owned_memo_list = ref [] and owned_memo_page = ref (-1) and owned_memo_ok = ref false in
  Machine.set_on_store machine (fun ~paddr ~width:_ ->
      match Layout.kind_of_addr layout paddr with
      | Some Layout.Buffer_cache -> incr wild_stores
      | Some Layout.Page_pool ->
        let page = paddr - (paddr mod Phys_mem.page_size) in
        let owned = Kernel.owned_pool_pages kernel in
        let ok =
          if owned == !owned_memo_list && page = !owned_memo_page then !owned_memo_ok
          else begin
            let r = List.mem page owned in
            owned_memo_list := owned;
            owned_memo_page := page;
            owned_memo_ok := r;
            r
          end
        in
        if not ok then incr wild_stores
      | Some
          ( Layout.Kernel_text | Layout.Kernel_heap | Layout.Kernel_stack | Layout.Page_tables
          | Layout.Registry )
      | None -> ());
  let crash = ref None in
  (try
     for _ = 1 to config.Campaign.max_steps do
       one_step ()
     done
   with
  | Kcrash.Crashed info -> crash := Some info
  | Fs_types.Fs_error msg ->
    crash := Some { Kcrash.cause = Kcrash.Panic msg; during = "file system"; at_us = Rio_sim.Engine.now engine }
  | Invalid_argument msg ->
    crash :=
      Some
        {
          Kcrash.cause = Kcrash.Panic ("machine check: " ^ msg);
          during = "kernel";
          at_us = Rio_sim.Engine.now engine;
        });
  Spans.count sp "cpu.instructions" (float_of_int (Machine.instructions_retired machine - instr0));
  Spans.count sp "workload.steps" (float_of_int (Memtest.steps_done mt));
  let key =
    match !crash with
    | None ->
      {
        discarded = true;
        crash_message = None;
        corrupted = false;
        corrupt_paths = 0;
        sim_time_us = Rio_sim.Engine.now engine;
      }
    | Some info ->
      Spans.count sp "campaign.crashed" 1.;
      span "kernel.crash" (fun () -> Kernel.crash_system kernel info);
      let checksum_detected = ref false in
      let recovered_fs =
        match system with
        | Campaign.Disk_based ->
          ignore (span "fs.fsck" (fun () -> Fsck.run ~disk:(Kernel.disk kernel)) : Fsck.report);
          let kernel2 =
            span "kernel.boot_on_disk" (fun () ->
                Kernel.boot_on_disk ~engine ~costs kcfg ~disk:(Kernel.disk kernel))
          in
          trial_mems := Kernel.mem kernel2 :: !trial_mems;
          span "fs.mount" (fun () -> Kernel.mount kernel2 ~policy:Fs.Ufs_default)
        | Campaign.Rio_without_protection | Campaign.Rio_with_protection ->
          let prot = system = Campaign.Rio_with_protection in
          let fs_ref = ref None in
          let report =
            span "rio.warm_reboot" (fun () ->
                Warm_reboot.perform ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
                  ~layout:(Kernel.layout kernel) ~engine ~reboot:(fun () ->
                    let kernel2 =
                      span "kernel.boot_warm" (fun () ->
                          Kernel.boot_warm ~engine ~costs kcfg ~mem:(Kernel.mem kernel)
                            ~disk:(Kernel.disk kernel))
                    in
                    span "rio.create" (fun () -> make_rio kernel2 ~protection:prot);
                    let fs2 = span "fs.mount" (fun () -> Kernel.mount kernel2 ~policy:Fs.Rio_policy) in
                    fs_ref := Some fs2;
                    fs2))
          in
          Spans.count sp "rio.reboots" 1.;
          Spans.count sp "rio.recovery_sim_us" (float_of_int report.Warm_reboot.duration_us);
          checksum_detected :=
            report.Warm_reboot.meta_verify.Warm_reboot.mismatched > 0
            || report.Warm_reboot.data_verify.Warm_reboot.mismatched > 0;
          (match !fs_ref with Some fs2 -> fs2 | None -> assert false)
      in
      let discrepancies, static_ok =
        span "workload.audit" (fun () ->
            let replayed = Memtest.replay mt_config ~steps:(Memtest.steps_done mt) in
            let exempt = Memtest.touched_by_next_step replayed in
            let d =
              match Memtest.compare_with_fs replayed recovered_fs ~exempt with
              | d -> List.map Memtest.discrepancy_to_string d
              | exception Fs_types.Fs_error msg -> [ "comparison failed: " ^ msg ]
            in
            (d, static_files_match recovered_fs))
      in
      {
        discarded = false;
        crash_message = Some (Kcrash.message_of info);
        corrupted = discrepancies <> [] || (not static_ok) || !checksum_detected;
        corrupt_paths = List.length discrepancies + (if static_ok then 0 else 1);
        sim_time_us = Rio_sim.Engine.now engine;
      }
  in
  span "world.dispose" (fun () ->
      List.iter Phys_mem.retire !trial_mems;
      World.dispose w);
  key

let traced_attempt sp ((system, fault), seed) =
  match Spans.trial sp "campaign.trial" (fun () -> compose sp system fault ~seed) with
  | k -> Ok k
  | exception e -> Error (Printexc.to_string e)

let trace ~seed ~seconds ~smoke sp =
  let pairing = Meter.pairing () in
  let failed = ref 0 in
  let attempted =
    stream ~seconds ~smoke (fun k ->
        let inp = input ~seed k in
        let r, c =
          Meter.pair pairing ~untraced:(fun () -> attempt inp) ~traced:(fun () -> traced_attempt sp inp)
        in
        if Result.is_error r then incr failed;
        if r <> c then begin
          pairing.Meter.mismatches <- pairing.Meter.mismatches + 1;
          Printf.eprintf "campaign: composed trial seed %d does not reproduce run_one\n%!" (snd inp)
        end)
  in
  let n = float_of_int attempted in
  let per_op name = 1e3 *. Spans.total sp name /. n in
  let activity_s = Spans.total sp "kernel.activity" in
  let instructions = Spans.counter sp "cpu.instructions" in
  let reboots = Spans.counter sp "rio.reboots" in
  ( {
      Meter.attempted;
      failed = !failed;
      correct = !failed = 0;
      metrics =
        [
          Meter.metric "op_ms.p50" "ms" (1e3 *. Spans.p50 sp "campaign.trial");
          Meter.metric "world.create_ms.p50" "ms" (1e3 *. Spans.p50 sp "world.create");
          Meter.metric "kernel.activity_ms" "ms" (per_op "kernel.activity");
          Meter.metric "cpu.instructions" "count" (instructions /. n);
          Meter.metric "cpu.instr_per_s" "1/s" (Meter.per instructions activity_s);
          Meter.metric "fault.inject_ms" "ms" (per_op "fault.inject");
          Meter.metric "workload.memtest_ms" "ms" (per_op "workload.memtest");
          Meter.metric "workload.andrew_ms" "ms" (per_op "workload.andrew");
          Meter.metric "workload.steps" "count" (Spans.counter sp "workload.steps" /. n);
          Meter.metric "workload.audit_ms" "ms" (per_op "workload.audit");
          Meter.metric "rio.warm_reboot_ms" "ms" (per_op "rio.warm_reboot");
          Meter.metric "kernel.boot_warm_ms" "ms" (per_op "kernel.boot_warm");
          Meter.metric "fs.mount_ms" "ms" (per_op "fs.mount");
          Meter.metric "rio.recovery_sim_ms" "sim_ms"
            (Meter.per (Spans.counter sp "rio.recovery_sim_us" /. 1e3) reboots);
          Meter.metric "fs.fsck_ms" "ms" (per_op "fs.fsck");
          Meter.metric "campaign.crash_ratio" "ratio" (Spans.counter sp "campaign.crashed" /. n);
        ]
        @ Meter.gc_metrics pairing ~ops:n;
      report = [];
    },
    pairing )
