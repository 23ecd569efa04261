module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Layout = Rio_mem.Layout
module Kernel = Rio_kernel.Kernel
module Fs = Rio_fs.Fs
module Fsck = Rio_fs.Fsck
module Rio_cache = Rio_core.Rio_cache
module World = Rio_world.World
module Cp_rm = Rio_workload.Cp_rm
module Memtest = Rio_workload.Memtest
module Machine = Rio_cpu.Machine
module Table = Rio_util.Table
module Units = Rio_util.Units
module Pool = Rio_parallel.Pool

(* Each ablation point builds its own world from its seed, so a sweep's
   points are independent tasks for the domain pool; [domains] defaults to
   1 (today's serial path) and merged results keep the sweep's
   presentation order, making parallel output byte-identical. *)

(* The paper's measurement machine: 128 MB of memory over a 320 MB disk. *)
let paper_machine ~seed =
  {
    Kernel.default_config with
    Kernel.layout_config = Layout.paper_config;
    disk_sectors = 640 * 1024;
    seed;
  }

(* ---------------- protection overhead ---------------- *)

type protection_result = {
  noprot_s : float;
  prot_s : float;
  overhead_pct : float;
  toggles : int;
  checksum_updates : int;
  shadow_updates : int;
}

let cp_rm_time ~protection ~scale ~seed =
  let world = World.create ~config:(paper_machine ~seed) ~protection ~seed () in
  let engine = World.engine world and fs = World.fs world and rio = World.rio world in
  let w = Cp_rm.create ~total_bytes:(int_of_float (scale *. 40e6)) () in
  Cp_rm.setup w fs;
  let t0 = Engine.now engine in
  Cp_rm.run_cp w fs;
  Cp_rm.run_rm w fs;
  (Units.sec_of_usec (Engine.now engine - t0), Rio_cache.stats rio)

let protection_overhead ?(scale = 0.5) ?(domains = 1) ~seed () =
  match Pool.map_list ~domains (fun protection -> cp_rm_time ~protection ~scale ~seed) [ false; true ] with
  | [ (noprot_s, _); (prot_s, stats) ] ->
  {
    noprot_s;
    prot_s;
    overhead_pct = 100. *. ((prot_s /. noprot_s) -. 1.);
    toggles = stats.Rio_cache.protection_toggles;
    checksum_updates = stats.Rio_cache.checksum_updates;
    shadow_updates = stats.Rio_cache.shadow_updates;
  }
  | _ -> assert false

let protection_table r =
  let t = Table.create ~columns:[ ("Quantity", Table.Left); ("Value", Table.Right) ] in
  Table.add_row t [ "cp+rm without protection (s)"; Printf.sprintf "%.2f" r.noprot_s ];
  Table.add_row t [ "cp+rm with protection (s)"; Printf.sprintf "%.2f" r.prot_s ];
  Table.add_row t [ "overhead (paper: ~0-4%)"; Printf.sprintf "%.2f%%" r.overhead_pct ];
  Table.add_row t [ "protect/unprotect operations"; string_of_int r.toggles ];
  Table.add_row t [ "checksum updates"; string_of_int r.checksum_updates ];
  Table.add_row t [ "shadow-page metadata updates"; string_of_int r.shadow_updates ];
  t

(* ---------------- code patching ---------------- *)

type code_patching_result = {
  store_density : float;
  checked_fraction : float;
  check_instructions : int;
  slowdown_pct : float;
}

let code_patching ~seed () =
  (* Measure the dynamic store density of the kernel corpus by running
     activity bursts on a healthy kernel. *)
  let kernel = World.kernel (World.create ~rio:false ~seed ()) in
  for _ = 1 to 400 do
    Kernel.run_activity kernel
  done;
  let m = Kernel.machine kernel in
  let density =
    float_of_int (Machine.stores_retired m) /. float_of_int (Machine.instructions_retired m)
  in
  (* Wahbe-style sandboxing after optimization: roughly half the stores
     still need the inserted check, each a ~5-instruction sequence
     (materialize the segment bounds, two compares, two branches, and the
     register spill/reload around them). *)
  let checked_fraction = 0.5 in
  let check_instructions = 8 in
  {
    store_density = density;
    checked_fraction;
    check_instructions;
    slowdown_pct =
      100. *. density *. checked_fraction *. float_of_int check_instructions;
  }

let code_patching_table r =
  let t = Table.create ~columns:[ ("Quantity", Table.Left); ("Value", Table.Right) ] in
  Table.add_row t [ "dynamic store density"; Printf.sprintf "%.3f stores/instr" r.store_density ];
  Table.add_row t [ "stores still checked"; Printf.sprintf "%.0f%%" (100. *. r.checked_fraction) ];
  Table.add_row t [ "instructions per check"; string_of_int r.check_instructions ];
  Table.add_row t
    [ "modeled slowdown (paper: 20-50%)"; Printf.sprintf "%.0f%%" r.slowdown_pct ];
  t

(* ---------------- registry cost ---------------- *)

type registry_result = {
  registry_updates : int;
  bytes_per_page : int;
  space_overhead_pct : float;
  time_overhead_pct : float;
}

let registry_cost ?(steps = 400) ~seed () =
  let w = World.create ~seed () in
  let engine = World.engine w and fs = World.fs w and rio = World.rio w in
  let costs = World.costs w in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed } in
  let t0 = Engine.now engine in
  for _ = 1 to steps do
    Memtest.step mt ~fs ()
  done;
  let run_us = Engine.now engine - t0 in
  let stats = Rio_cache.stats rio in
  let registry_us =
    float_of_int stats.Rio_cache.registry_updates *. costs.Costs.registry_update_us
  in
  {
    registry_updates = stats.Rio_cache.registry_updates;
    bytes_per_page = Rio_core.Registry.entry_bytes;
    space_overhead_pct =
      100. *. float_of_int Rio_core.Registry.entry_bytes
      /. float_of_int Rio_mem.Phys_mem.page_size;
    time_overhead_pct = 100. *. registry_us /. float_of_int (max 1 run_us);
  }

let registry_table r =
  let t = Table.create ~columns:[ ("Quantity", Table.Left); ("Value", Table.Right) ] in
  Table.add_row t [ "registry updates under memTest"; string_of_int r.registry_updates ];
  Table.add_row t [ "bytes per 8 KB page (paper: 40)"; string_of_int r.bytes_per_page ];
  Table.add_row t [ "space overhead"; Printf.sprintf "%.2f%%" r.space_overhead_pct ];
  Table.add_row t [ "time overhead"; Printf.sprintf "%.3f%%" r.time_overhead_pct ];
  t

(* ---------------- idle write-back (Rio_idle, §2.3 future work) ------- *)

type idle_writeback_result = {
  rio_s : float;
  rio_idle_s : float;
  rio_evictions : int;
  rio_idle_evictions : int;
  rio_idle_daemon_writes : int;
}

(* Churn far more data than the page pool holds: plain Rio must write dirty
   victims synchronously at eviction time; Rio_idle trickled them out
   already and evicts clean pages. *)
let idle_writeback ?(domains = 1) ~seed () =
  let run policy =
    let w =
      World.create
        ~config:{ (Kernel.config_with_seed seed) with Kernel.disk_sectors = 160 * 1024 }
        ~costs:{ Costs.default with Costs.update_interval = Units.sec 1 }
        ~policy ~seed ()
    in
    let engine = World.engine w and fs = World.fs w in
    let t0 = Engine.now engine in
    let chunk = Rio_util.Pattern.fill ~seed ~len:(256 * 1024) in
    for i = 0 to 89 do
      (* Accumulate ~22 MB of live files through an ~11 MB pool: once the
         pool fills, every new write must evict. Think time between bursts
         is the daemon's idle room. *)
      Fs.write_file fs (Printf.sprintf "/churn%d" i) chunk;
      Engine.advance_by engine (Units.msec 300)
    done;
    let stats = Rio_fs.Block_cache.stats (Fs.data_cache fs) in
    (Units.sec_of_usec (Engine.now engine - t0), stats)
  in
  match Pool.map_list ~domains run [ Fs.Rio_policy; Fs.Rio_idle ] with
  | [ (rio_s, rio_stats); (rio_idle_s, idle_stats) ] ->
    {
      rio_s;
      rio_idle_s;
      rio_evictions = rio_stats.Rio_fs.Block_cache.evictions;
      rio_idle_evictions = idle_stats.Rio_fs.Block_cache.evictions;
      rio_idle_daemon_writes = idle_stats.Rio_fs.Block_cache.writebacks;
    }
  | _ -> assert false

let idle_writeback_table r =
  let t = Table.create ~columns:[ ("Quantity", Table.Left); ("Value", Table.Right) ] in
  Table.add_row t [ "rio (no idle write-back), churn run (s)"; Printf.sprintf "%.2f" r.rio_s ];
  Table.add_row t [ "rio-idle, same run (s)"; Printf.sprintf "%.2f" r.rio_idle_s ];
  Table.add_row t [ "evictions (rio)"; string_of_int r.rio_evictions ];
  Table.add_row t [ "evictions (rio-idle)"; string_of_int r.rio_idle_evictions ];
  Table.add_row t [ "daemon write-backs (rio-idle)"; string_of_int r.rio_idle_daemon_writes ];
  t

(* ---------------- debit/credit protection overhead (§6) ---------------- *)

type debit_credit_result = {
  noprot_txn_us : float;
  prot_txn_us : float;
  overhead_pct : float;
}

(* Sullivan & Stonebraker measured their "expose page" protection at 7%
   overhead on a debit/credit benchmark; the paper argues Rio's is lower
   because protection toggles happen in-kernel and are amortized over
   8 KB writes. Reproduce the comparison on Vista transactions. *)
let debit_credit ?(transactions = 600) ?(domains = 1) ~seed () =
  let run protection =
    let w = World.create ~protection ~seed () in
    let engine = World.engine w and fs = World.fs w in
    let store = Rio_txn.Vista.create fs ~path:"/tpc" ~size:(64 * 1024) in
    let prng = Rio_util.Prng.create ~seed in
    let t0 = Engine.now engine in
    for _ = 1 to transactions do
      let txn = Rio_txn.Vista.begin_txn store in
      let a = Rio_util.Prng.int prng 512 and b = Rio_util.Prng.int prng 512 in
      let record = Rio_util.Prng.bytes prng 100 in
      Rio_txn.Vista.write txn ~offset:(a * 100) record;
      Rio_txn.Vista.write txn ~offset:(b * 100) record;
      Rio_txn.Vista.commit txn
    done;
    float_of_int (Engine.now engine - t0) /. float_of_int transactions
  in
  match Pool.map_list ~domains run [ false; true ] with
  | [ noprot_txn_us; prot_txn_us ] ->
    { noprot_txn_us; prot_txn_us; overhead_pct = 100. *. ((prot_txn_us /. noprot_txn_us) -. 1.) }
  | _ -> assert false

let debit_credit_table r =
  let t = Table.create ~columns:[ ("Quantity", Table.Left); ("Value", Table.Right) ] in
  Table.add_row t [ "txn latency w/o protection"; Printf.sprintf "%.1f us" r.noprot_txn_us ];
  Table.add_row t [ "txn latency w/ protection"; Printf.sprintf "%.1f us" r.prot_txn_us ];
  Table.add_row t
    [ "overhead (Sullivan-Stonebraker: 7%)"; Printf.sprintf "%.1f%%" r.overhead_pct ];
  t

(* ---------------- Phoenix-style checkpointing (related work, §6) ------ *)

type phoenix_point = {
  scheme : string;
  run_s : float;
  lost_bytes : int;
  lost_files : int;
  checkpoints : int;
}

(* Phoenix (Gait 1990) keeps a write-protected checkpoint of the in-memory
   file system and recovers to it: writes since the last checkpoint are
   lost, and each checkpoint pays a copy-on-write pass over the pages
   dirtied in the interval. Rio makes every write permanent. Same
   editing-session workload for both. *)
let phoenix_comparison ?(steps = 283) ?(domains = 1) ~seed () =
  let session interval_opt =
    let w = World.create ~seed () in
    let engine = World.engine w and fs = World.fs w and costs = World.costs w in
    let config = { Memtest.default_config with Memtest.seed } in
    let mt = Memtest.create config in
    let checkpoints = ref 0 in
    let checkpoint_steps = ref 0 in
    let dirty_bytes_since = ref 0 in
    let t0 = Engine.now engine in
    let next_checkpoint = ref (Engine.now engine) in
    (match interval_opt with Some i -> next_checkpoint := Engine.now engine + i | None -> ());
    for step = 1 to steps do
      let before = Memtest.total_model_bytes mt in
      Memtest.step mt ~fs ();
      dirty_bytes_since := !dirty_bytes_since + abs (Memtest.total_model_bytes mt - before);
      Engine.advance_by engine (Units.msec 200);
      match interval_opt with
      | Some interval when Engine.now engine >= !next_checkpoint ->
        (* Checkpoint: copy-on-write pass over everything dirtied since the
           last one (approximated by the byte churn). *)
        incr checkpoints;
        checkpoint_steps := step;
        Engine.advance_by engine (Costs.page_copy_time costs (max 8192 !dirty_bytes_since));
        dirty_bytes_since := 0;
        next_checkpoint := Engine.now engine + interval
      | Some _ | None -> ()
    done;
    let run_s = Units.sec_of_usec (Engine.now engine - t0) in
    (* Crash. Phoenix recovers to the checkpoint; Rio warm-reboots to the
       instant of the crash. *)
    match interval_opt with
    | None -> (run_s, 0, 0, 0)
    | Some _ ->
      let at_checkpoint = Memtest.replay config ~steps:!checkpoint_steps in
      let files, bytes = Memtest.loss_between ~earlier:at_checkpoint ~later:mt in
      (run_s, files, bytes, !checkpoints)
  in
  let mk (scheme, interval) =
    let run_s, lost_files, lost_bytes, checkpoints = session interval in
    { scheme; run_s; lost_bytes; lost_files; checkpoints }
  in
  Pool.map_list ~domains mk
    [
      ("phoenix, 5s checkpoints", Some (Units.sec 5));
      ("phoenix, 30s checkpoints", Some (Units.sec 30));
      ("rio (every write permanent)", None);
    ]

let phoenix_table points =
  let t =
    Table.create
      ~columns:
        [
          ("Recovery scheme", Table.Left);
          ("Runtime (s)", Table.Right);
          ("Checkpoints", Table.Right);
          ("Lost files", Table.Right);
          ("Lost bytes", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.scheme;
          Printf.sprintf "%.2f" p.run_s;
          string_of_int p.checkpoints;
          string_of_int p.lost_files;
          string_of_int p.lost_bytes;
        ])
    points;
  t

(* ---------------- modern-disk sensitivity ---------------- *)

type disk_sensitivity = {
  era : string;
  wt_write_s : float;
  rio_s : float;
  ratio : float;
}

(* How much of Rio's performance win is the 1990s disk? Rerun the
   write-through comparison with a modern drive's parameters. *)
let modern_disk_sensitivity ?(domains = 1) ~seed () =
  let cell (costs, label) =
    let run policy rio =
      let world = World.create ~config:(paper_machine ~seed) ~costs ~rio ~policy ~seed () in
      let engine = World.engine world and fs = World.fs world in
      let w = Cp_rm.create ~total_bytes:(int_of_float (0.15 *. 40e6)) () in
      Cp_rm.setup w fs;
      Fs.sync fs;
      let t0 = Engine.now engine in
      Cp_rm.run_cp w fs;
      Cp_rm.run_rm w fs;
      Units.sec_of_usec (Engine.now engine - t0)
    in
    let wt = run Fs.Wt_write false in
    let rio = run Fs.Rio_policy true in
    { era = label; wt_write_s = wt; rio_s = rio; ratio = wt /. rio }
  in
  Pool.map_list ~domains cell
    [ (Costs.default, "1996 SCSI disk"); (Costs.fast_disk, "modern disk") ]

let disk_sensitivity_table points =
  let t =
    Table.create
      ~columns:
        [
          ("Disk era", Table.Left);
          ("wt-write cp+rm (s)", Table.Right);
          ("rio cp+rm (s)", Table.Right);
          ("rio speedup", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.era;
          Printf.sprintf "%.1f" p.wt_write_s;
          Printf.sprintf "%.1f" p.rio_s;
          Printf.sprintf "%.1fx" p.ratio;
        ])
    points;
  t

(* ---------------- delay sweep ---------------- *)

type delay_point = {
  delay : Units.usec option;
  label : string;
  run_s : float;
  lost_bytes : int;
  lost_files : int;
}

let delayed_point ~interval ~steps ~seed =
  let w =
    World.create
      ~costs:{ Costs.default with Costs.update_interval = interval }
      ~rio:false ~policy:Fs.Ufs_delayed ~seed ()
  in
  let engine = World.engine w and fs = World.fs w in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed } in
  let t0 = Engine.now engine in
  for _ = 1 to steps do
    Memtest.step mt ~fs ();
    (* Think time between operations: the session spans minutes of
       simulated time, so the update interval actually matters. *)
    Engine.advance_by engine (Units.msec 500)
  done;
  let run_s = Units.sec_of_usec (Engine.now engine - t0) in
  (* Crash, recover from disk alone, and count the damage. *)
  Fs.crash fs;
  ignore (Fsck.run ~disk:(World.disk w));
  let fs2 = World.cold_reboot w in
  let lost_files, lost_bytes = Memtest.loss_against_fs mt fs2 in
  { delay = Some interval; label = ""; run_s; lost_bytes; lost_files }

let rio_point ~steps ~seed =
  let w = World.create ~seed () in
  let engine = World.engine w and fs = World.fs w in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed } in
  let t0 = Engine.now engine in
  for _ = 1 to steps do
    Memtest.step mt ~fs ();
    Engine.advance_by engine (Units.msec 500)
  done;
  let run_s = Units.sec_of_usec (Engine.now engine - t0) in
  (* Crash and warm-reboot: memory carries everything over. *)
  Fs.crash fs;
  let _, fs2 = World.warm_reboot w in
  let lost_files, lost_bytes = Memtest.loss_against_fs mt fs2 in
  { delay = None; label = "rio (warm reboot)"; run_s; lost_bytes; lost_files }

let delay_sweep ?(steps = 400) ?(domains = 1) ~seed () =
  let intervals = [ Units.sec 1; Units.sec 5; Units.sec 15; Units.sec 30; Units.sec 120 ] in
  Pool.map_list ~domains
    (function
      | Some interval ->
        let p = delayed_point ~interval ~steps ~seed in
        { p with label = Format.asprintf "delay %a" Units.pp_usec interval }
      | None -> rio_point ~steps ~seed)
    (List.map (fun i -> Some i) intervals @ [ None ])

let delay_table points =
  let t =
    Table.create
      ~columns:
        [
          ("Write policy", Table.Left);
          ("Runtime (s)", Table.Right);
          ("Lost files", Table.Right);
          ("Lost bytes", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.label;
          Printf.sprintf "%.2f" p.run_s;
          string_of_int p.lost_files;
          string_of_int p.lost_bytes;
        ])
    points;
  t

(* ---------------- the bundled entry point ---------------- *)

type results = {
  protection : protection_result;
  patching : code_patching_result;
  registry : registry_result;
  delay : delay_point list;
  idle : idle_writeback_result;
  disk : disk_sensitivity list;
  phoenix : phoenix_point list;
  debit : debit_credit_result;
}

let run (cfg : Run.config) =
  let seed = cfg.Run.seed in
  let domains = cfg.Run.domains in
  let report = Run.reporter cfg ~total:8 in
  let step label detail v =
    report ~label ~detail;
    v
  in
  (* The write-heavy protection ablation keeps its historical half-size
     workload; config.scale multiplies it. *)
  let protection =
    step "protection" "cp+rm under both Rio modes"
      (protection_overhead ~scale:(0.5 *. cfg.Run.scale) ~domains ~seed ())
  in
  let patching = step "code-patching" "store density model" (code_patching ~seed ()) in
  let registry = step "registry" "memTest bookkeeping" (registry_cost ~seed ()) in
  let delay = step "delay-sweep" "delayed-write spectrum" (delay_sweep ~domains ~seed ()) in
  let idle = step "idle-writeback" "§2.3 future work" (idle_writeback ~domains ~seed ()) in
  let disk =
    step "disk-speed" "1996 vs modern" (modern_disk_sensitivity ~domains ~seed ())
  in
  let phoenix =
    step "phoenix" "checkpointing comparison" (phoenix_comparison ~domains ~seed ())
  in
  let debit = step "debit-credit" "§6 comparison" (debit_credit ~domains ~seed ()) in
  { protection; patching; registry; delay; idle; disk; phoenix; debit }
