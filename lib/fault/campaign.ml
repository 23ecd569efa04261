module Engine = Rio_sim.Engine
module Kernel = Rio_kernel.Kernel
module Kcrash = Rio_kernel.Kcrash
module Fs = Rio_fs.Fs
module Fsck = Rio_fs.Fsck
module Machine = Rio_cpu.Machine
module Warm_reboot = Rio_core.Warm_reboot
module Memtest = Rio_workload.Memtest
module Andrew = Rio_workload.Andrew
module Script = Rio_workload.Script
module Prng = Rio_util.Prng
module Pattern = Rio_util.Pattern
module Trace = Rio_obs.Trace
module Forensics = Rio_obs.Forensics
module World = Rio_world.World

type system =
  | Disk_based
  | Rio_without_protection
  | Rio_with_protection

let all_systems = [ Disk_based; Rio_without_protection; Rio_with_protection ]

let system_name = function
  | Disk_based -> "disk-based (write-through)"
  | Rio_without_protection -> "rio without protection"
  | Rio_with_protection -> "rio with protection"

let system_slug = function
  | Disk_based -> "disk-based"
  | Rio_without_protection -> "rio-noprot"
  | Rio_with_protection -> "rio-prot"

type config = {
  warmup_steps : int;
  max_steps : int;
  faults_per_run : int;
  activity_per_step : int;
  memtest_files : int;
  memtest_file_bytes : int;
  background_andrew : int;
  andrew_scale : float;
  kernel_config : Kernel.config;
}

let default_config =
  {
    warmup_steps = 40;
    max_steps = 260;
    faults_per_run = 20;
    activity_per_step = 2;
    memtest_files = 24;
    memtest_file_bytes = 32 * 1024;
    background_andrew = 2;
    andrew_scale = 0.03;
    kernel_config = Kernel.default_config;
  }

type outcome = {
  discarded : bool;
  crash : Kcrash.info option;
  crash_message : string option;
  protection_trap : bool;
  corrupted : bool;
  corrupt_paths : int;
  discrepancies : string list;
  checksum_detected : bool;
  changing_buffers : int;
  static_files_ok : bool;
  memtest_steps : int;
  sim_time_us : int;
  registry_corrupt_slots : int;
  wild_filecache_stores : int;
      (** Post-injection stores by interpreted kernel code into file-cache
          pages the kernel does not own — direct corruption in the act
          (the propagation tracing the paper's footnote 2 left open). *)
  injected_at_us : int;  (** When the faults went in. *)
  forensics : Forensics.t option;
      (** Present when the trial ran with a live recorder: the distilled
          injection → wild store → crash → recovery chain. *)
}

let static_seed = 0x57A7

let make_static_files fs =
  Fs.mkdir fs "/static";
  let data = Pattern.fill ~seed:static_seed ~len:24_000 in
  Fs.write_file fs "/static/copy-a" data;
  Fs.write_file fs "/static/copy-b" data

let static_files_match fs =
  match (Fs.read_file fs "/static/copy-a", Fs.read_file fs "/static/copy-b") with
  | a, b ->
    Bytes.equal a b && Bytes.equal a (Pattern.fill ~seed:static_seed ~len:24_000)
  | exception Rio_fs.Fs_types.Fs_error _ -> false

let is_protection_trap = function
  | Some { Kcrash.cause = Kcrash.Trap (Machine.Protection_violation _); _ } -> true
  | Some _ | None -> false

let run_one ?(obs = Trace.null) cfg system fault ~seed =
  let policy, protection, fsync_writes =
    match system with
    | Disk_based -> (Fs.Ufs_default, None, true)
    | Rio_without_protection -> (Fs.Rio_policy, Some false, false)
    | Rio_with_protection -> (Fs.Rio_policy, Some true, false)
  in
  (* The pristine post-mount world, via the same construction path the
     campaign engines template. No freeze here: every attempt's seed feeds
     the kernel PRNG at boot, so reliability trials never share a
     template — the win is the single world-building and recovery code
     path (and retire-pooled memory, the Disk_based cold reboot's
     included; a trial that escapes with an exception skips the retire and
     the GC reclaims as before). *)
  let w =
    World.create ~obs ~config:cfg.kernel_config ~rio:(protection <> None)
      ~protection:(protection = Some true) ~policy ~seed ()
  in
  let outcome =
  let engine = World.engine w in
  let kernel = World.kernel w in
  let fs = World.fs w in
  make_static_files fs;
  let mt_config =
    {
      Memtest.default_config with
      Memtest.seed = seed lxor 0x77;
      max_files = cfg.memtest_files;
      max_file_bytes = cfg.memtest_file_bytes;
      fsync_every_write = fsync_writes;
    }
  in
  let mt = Memtest.create mt_config in
  let andrews =
    List.init cfg.background_andrew (fun i ->
        Andrew.runner
          (Andrew.create ~scale:cfg.andrew_scale ~seed:(200 + i)
             ~root:(Printf.sprintf "/bg%d" i) ()))
  in
  (* One combined workload step: memTest, a slice of each background
     Andrew, and the interleaved kernel activity. *)
  let one_step () =
    Memtest.step mt ~fs ();
    List.iter (fun r -> ignore (Script.step r fs)) andrews;
    for _ = 1 to cfg.activity_per_step do
      Kernel.run_activity kernel
    done
  in
  (* Warmup (any exception here is a real bug, not a crash). *)
  for _ = 1 to cfg.warmup_steps do
    one_step ()
  done;
  (* Inject the run's faults, and from this moment watch for interpreted
     stores landing in file-cache pages the kernel does not own — direct
     corruption caught red-handed. *)
  let inj_prng = Prng.create ~seed:(seed lxor 0xFA17) in
  Injector.inject_many kernel ~prng:inj_prng fault ~count:cfg.faults_per_run;
  let injected_at = Engine.now engine in
  let wild_stores = ref 0 in
  let layout = Kernel.layout kernel in
  let note_wild ~paddr ~width region =
    incr wild_stores;
    if Trace.enabled obs then
      Trace.emit obs Trace.Kernel (Trace.Wild_store { paddr; width; region })
  in
  (* Memo for the pool-ownership test: interpreted copies hit the same
     page store after store, and the owned-page list is rebuilt (new
     cells) whenever it changes, so physical equality detects
     staleness. *)
  let owned_memo_list = ref [] and owned_memo_page = ref (-1) and owned_memo_ok = ref false in
  Rio_cpu.Machine.set_on_store (Kernel.machine kernel) (fun ~paddr ~width ->
      match Rio_mem.Layout.kind_of_addr layout paddr with
      | Some Rio_mem.Layout.Buffer_cache -> note_wild ~paddr ~width "buffer_cache"
      | Some Rio_mem.Layout.Page_pool ->
        let page = paddr - (paddr mod Rio_mem.Phys_mem.page_size) in
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
        if not ok then note_wild ~paddr ~width "page_pool"
      | Some
          ( Rio_mem.Layout.Kernel_text | Rio_mem.Layout.Kernel_heap
          | Rio_mem.Layout.Kernel_stack | Rio_mem.Layout.Page_tables
          | Rio_mem.Layout.Registry )
      | None -> ());
  (* Run until crash or watchdog. *)
  let crash = ref None in
  (try
     for _ = 1 to cfg.max_steps do
       one_step ()
     done
   with
  | Kcrash.Crashed info -> crash := Some info
  | Rio_fs.Fs_types.Fs_error msg ->
    crash :=
      Some
        { Kcrash.cause = Kcrash.Panic msg; during = "file system"; at_us = Engine.now engine }
  | Invalid_argument msg ->
    crash :=
      Some
        {
          Kcrash.cause = Kcrash.Panic ("machine check: " ^ msg);
          during = "kernel";
          at_us = Engine.now engine;
        });
  match !crash with
  | None ->
    (* The system survived its faults: the run is discarded (§3.1, about
       half the time). *)
    {
      discarded = true;
      crash = None;
      crash_message = None;
      protection_trap = false;
      corrupted = false;
      corrupt_paths = 0;
      discrepancies = [];
      checksum_detected = false;
      changing_buffers = 0;
      static_files_ok = true;
      memtest_steps = Memtest.steps_done mt;
      sim_time_us = Engine.now engine;
      registry_corrupt_slots = 0;
      wild_filecache_stores = !wild_stores + Kernel.overrun_filecache_bytes kernel;
      injected_at_us = injected_at;
      forensics = (if Trace.enabled obs then Some (Forensics.summarize obs) else None);
    }
  | Some info ->
    Kernel.crash_system kernel info;
    (* Recovery. *)
    let checksum_detected = ref false in
    let changing = ref 0 in
    let registry_corrupt = ref 0 in
    let recovered_fs =
      match system with
      | Disk_based ->
        ignore (Fsck.run ~disk:(Kernel.disk kernel));
        World.cold_reboot w
      | Rio_without_protection | Rio_with_protection ->
        let report, fs2 = World.warm_reboot w in
        checksum_detected :=
          report.Warm_reboot.meta_verify.Warm_reboot.mismatched > 0
          || report.Warm_reboot.data_verify.Warm_reboot.mismatched > 0;
        changing :=
          report.Warm_reboot.meta_verify.Warm_reboot.changing
          + report.Warm_reboot.data_verify.Warm_reboot.changing;
        registry_corrupt := report.Warm_reboot.corrupt_registry_slots;
        fs2
    in
    (* memTest reconstruction and comparison (§3.2). *)
    let replayed = Memtest.replay mt_config ~steps:(Memtest.steps_done mt) in
    let exempt = Memtest.touched_by_next_step replayed in
    let discrepancies =
      match Memtest.compare_with_fs replayed recovered_fs ~exempt with
      | d -> List.map Memtest.discrepancy_to_string d
      | exception Rio_fs.Fs_types.Fs_error msg -> [ "comparison failed: " ^ msg ]
    in
    let static_ok = static_files_match recovered_fs in
    let corrupt_paths = List.length discrepancies + if static_ok then 0 else 1 in
    {
      discarded = false;
      crash = Some info;
      crash_message = Some (Kcrash.message_of info);
      protection_trap = is_protection_trap (Some info);
      (* A run is corrupt if memTest's reconstruction disagrees, the static
         twin files diverged, or the checksums caught direct corruption in
         any file-cache buffer (the only check covering the background
         Andrew files, as in §3.2). *)
      corrupted = discrepancies <> [] || (not static_ok) || !checksum_detected;
      corrupt_paths;
      discrepancies;
      checksum_detected = !checksum_detected;
      changing_buffers = !changing;
      static_files_ok = static_ok;
      memtest_steps = Memtest.steps_done mt;
      sim_time_us = Engine.now engine;
      registry_corrupt_slots = !registry_corrupt;
      wild_filecache_stores = !wild_stores + Kernel.overrun_filecache_bytes kernel;
      injected_at_us = injected_at;
      forensics = (if Trace.enabled obs then Some (Forensics.summarize obs) else None);
    }
  in
  World.dispose w;
  outcome

let pp_outcome ppf o =
  if o.discarded then Format.fprintf ppf "discarded (no crash, %d steps)" o.memtest_steps
  else
    Format.fprintf ppf "%s%s%s"
      (match o.crash_message with Some m -> m | None -> "?")
      (if o.corrupted then Format.asprintf " | CORRUPTED %d path(s)" o.corrupt_paths else " | intact")
      (if o.protection_trap then " | protection trap" else "")
