module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout
module Page_alloc = Rio_mem.Page_alloc
module Mmu = Rio_vm.Mmu
module Machine = Rio_cpu.Machine
module Kprogs = Rio_kasm.Kprogs
module Asm = Rio_kasm.Asm
module Disk = Rio_disk.Disk
module Fs = Rio_fs.Fs
module Hooks = Rio_fs.Hooks
module Prng = Rio_util.Prng
module Trace = Rio_obs.Trace

type config = {
  layout_config : Layout.config;
  tlb_entries : int;
  disk_sectors : int;
  disk_backend : Rio_disk.Backend.kind;
  seed : int;
  instr_ns : int;
  activity_budget : int;
}

let default_config =
  {
    layout_config = Layout.default_config;
    tlb_entries = 64;
    disk_sectors = 64 * 1024;
    disk_backend = Rio_disk.Backend.Scsi;
    seed = 1;
    instr_ns = 6;
    activity_budget = 50_000;
  }

let config_with_seed seed = { default_config with seed }

type armed = { mutable period : int; mutable countdown : int }

type t = {
  config : config;
  engine : Engine.t;
  obs : Trace.t;
  c_activities : Trace.counter;
  c_wild_stores : Trace.counter;
  costs : Costs.t;
  mem : Phys_mem.t;
  layout : Layout.t;
  mmu : Mmu.t;
  machine : Machine.t;
  disk : Disk.t;
  kprogs : Kprogs.t;
  heap : Kheap.t;
  hooks : Hooks.t;
  pool_alloc : Page_alloc.t;
  meta_alloc : Page_alloc.t;
  prng : Prng.t;
  mutable fs : Fs.t option;
  mutable crash : Kcrash.info option;
  mutable bursts : int;
  (* kernel-owned page-pool buffers, interleaved with UBC pages *)
  mutable owned_pages : int list;
  (* nodes currently allocated from the interpreted free list *)
  mutable in_use : int list;
  (* the "request descriptor" whose corruption models indirect corruption *)
  desc_addr : int;
  (* the persistent interrupt frame at the top of the kernel stack *)
  frame_addr : int;
  (* armed behavioral faults *)
  mutable overrun : armed option;
  mutable alloc_fault : armed option;
  mutable sync_fault : armed option;
  mutable overrun_filecache_bytes : int;
  mutable dlist_next : int;
  mutable hash_next : int;
  (* Buffers the panic path pushed to disk before the crash finished —
     the channel through which memory corruption propagates (§3.2).
     Forensics uses these to attribute propagated corruption. *)
  mutable crash_flushed_data : int;
  mutable crash_flushed_meta : int;
}

let engine t = t.engine
let obs t = t.obs
let costs t = t.costs
let mem t = t.mem
let layout t = t.layout
let mmu t = t.mmu
let machine t = t.machine
let disk t = t.disk
let kprogs t = t.kprogs
let heap t = t.heap
let hooks t = t.hooks
let pool_alloc t = t.pool_alloc
let owned_pool_pages t = t.owned_pages
let overrun_filecache_bytes t = t.overrun_filecache_bytes
let fs t = t.fs
let crash_info t = t.crash
let activity_bursts t = t.bursts
let crash_flushed t = (t.crash_flushed_data, t.crash_flushed_meta)

let crash_now t cause ~during = Kcrash.crash cause ~during ~at_us:(Engine.now t.engine)

(* ---------------- behavioral fault helpers ---------------- *)

let arm period = Some { period; countdown = period }

(* Decrement an armed counter; true when the fault fires this call.
   [weight] is how many real kernel calls this call stands for — an
   interpreted activity burst compresses many kernel-internal operations,
   so it consumes more of the countdown than one file-write bcopy. *)
let triggered ?(weight = 1) t = function
  | None -> false
  | Some a ->
    a.countdown <- a.countdown - weight;
    if a.countdown <= 0 then begin
      (* Re-arm with jitter around the period, as the paper's every
         1000-4000 calls. *)
      a.countdown <- a.period + Prng.int t.prng (max 1 (3 * a.period));
      true
    end
    else false

let activity_weight = 10

(* Copy-overrun length distribution from §3.1: 50% one byte, 44% 2-1024
   bytes, 6% 2-4 KB. *)
let overrun_length t =
  let roll = Prng.int t.prng 100 in
  if roll < 50 then 1
  else if roll < 94 then Prng.int_in t.prng 2 1024
  else Prng.int_in t.prng 2048 4096

(* Write the overrun tail through the MMU so Rio's protection can trap it.
   The bytes written are whatever followed the source buffer, as a real
   overrun copies (approximated with the PRNG when the source is
   exhausted). *)
let do_overrun t ~paddr ~src ~srcpos ~len =
  let extra = overrun_length t in
  let during = "kernel bcopy overrun" in
  for i = 0 to extra - 1 do
    let dst = paddr + len + i in
    if not (Phys_mem.in_range t.mem dst ~len:1) then
      crash_now t (Kcrash.Trap (Machine.Illegal_address dst)) ~during;
    (match Mmu.translate t.mmu ~vaddr:(Mmu.kseg_addr dst) ~access:Mmu.Write with
    | Mmu.Ok pa ->
      let value =
        let p = srcpos + len + i in
        if p < Bytes.length src then Char.code (Bytes.get src p) else Prng.int t.prng 256
      in
      (match Layout.kind_of_addr t.layout pa with
      | Some ((Layout.Buffer_cache | Layout.Page_pool) as region) ->
        t.overrun_filecache_bytes <- t.overrun_filecache_bytes + 1;
        if Trace.enabled t.obs then begin
          Trace.incr t.c_wild_stores;
          Trace.emit t.obs Trace.Kernel
            (Trace.Wild_store
               {
                 paddr = pa;
                 width = 1;
                 region =
                   (match region with
                   | Layout.Buffer_cache -> "buffer_cache"
                   | _ -> "page_pool");
               })
        end
      | Some
          ( Layout.Kernel_text | Layout.Kernel_heap | Layout.Kernel_stack
          | Layout.Page_tables | Layout.Registry )
      | None -> ());
      Phys_mem.write_u8 t.mem pa value
    | Mmu.Fault (Mmu.Write_protected a) ->
      crash_now t (Kcrash.Trap (Machine.Protection_violation a)) ~during
    | Mmu.Fault (Mmu.Unmapped a) ->
      crash_now t (Kcrash.Trap (Machine.Illegal_address a)) ~during)
  done

(* ---------------- boot ---------------- *)

let boot_with_mem ~engine ~costs config ~disk ~mem =
  let obs = Engine.obs engine in
  let layout = Layout.create config.layout_config in
  let mmu =
    Mmu.create ~obs ~mem_pages:(Phys_mem.page_count mem) ~tlb_entries:config.tlb_entries ()
  in
  let machine = Machine.create ~mem ~mmu in
  let text = Layout.region layout Layout.Kernel_text in
  let kprogs = Kprogs.build ~origin:text.Layout.base in
  Asm.load kprogs.Kprogs.program mem;
  let heap = Kheap.init ~mem ~region:(Layout.region layout Layout.Kernel_heap) in
  let pool_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Page_pool) in
  let meta_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Buffer_cache) in
  let prng = Prng.create ~seed:config.seed in
  let hooks = Hooks.defaults ~mem in
  let desc_addr = Kheap.counter_addr heap 6 in
  let stack = Layout.region layout Layout.Kernel_stack in
  let frame_addr = stack.Layout.base + stack.Layout.bytes - 32 in
  let t =
    {
      config;
      engine;
      obs;
      c_activities = Trace.counter obs "kernel.activity_routines";
      c_wild_stores = Trace.counter obs "kernel.wild_filecache_stores";
      costs;
      mem;
      layout;
      mmu;
      machine;
      disk;
      kprogs;
      heap;
      hooks;
      pool_alloc;
      meta_alloc;
      prng;
      fs = None;
      crash = None;
      bursts = 0;
      owned_pages = [];
      in_use = [];
      desc_addr;
      frame_addr;

      overrun = None;
      alloc_fault = None;
      sync_fault = None;
      overrun_filecache_bytes = 0;
      dlist_next = 0;
      hash_next = 0;
      crash_flushed_data = 0;
      crash_flushed_meta = 0;
    }
  in
  (* The request descriptor normally targets the heap scratch buffer; only
     fault-induced corruption redirects it (indirect corruption, §3.2). *)
  Kheap.write_word heap desc_addr (Kheap.scratch_addr heap);
  Kheap.write_word heap (desc_addr + 8) 32;
  (* A persistent "interrupt frame" lives at the top of the kernel stack:
     a saved return target and spilled copy arguments that later kernel
     work reloads — the state kernel-stack bit flips corrupt. *)
  Phys_mem.write_u64 mem frame_addr kprogs.Kprogs.halt_pad;
  Phys_mem.write_u64 mem (frame_addr + 8) (Kheap.scratch_addr heap + 7 * 1024);
  Phys_mem.write_u64 mem (frame_addr + 16) 128;
  (* Kernel bcopy is the data path: hook it with the overrun envelope. *)
  t.hooks.Hooks.copy_in <-
    (fun src srcpos ~paddr ~len ->
      Phys_mem.blit_from t.mem paddr src ~pos:srcpos ~len;
      if triggered t t.overrun then do_overrun t ~paddr ~src ~srcpos ~len);
  t

let boot_on_disk ~engine ~costs config ~disk =
  let mem = Phys_mem.create ~bytes_total:config.layout_config.Layout.total_bytes in
  boot_with_mem ~engine ~costs config ~disk ~mem

let boot_warm ~engine ~costs config ~mem ~disk =
  (* Memory survives a warm reboot: reuse it. Reloading the kernel text and
     reinitializing the heap only touch their own regions; the file cache
     and registry regions are left exactly as the crash left them. *)
  boot_with_mem ~engine ~costs config ~disk ~mem

let boot ~engine ~costs config =
  let disk =
    Disk.create ~backend:config.disk_backend ~engine ~costs ~sectors:config.disk_sectors
      ~seed:(config.seed lxor 0x5EED) ()
  in
  boot_on_disk ~engine ~costs config ~disk

let format t =
  let geom =
    Fs.default_geometry ~disk_sectors:(Disk.capacity_sectors t.disk)
      ~mem_bytes:(Phys_mem.size t.mem)
  in
  Fs.mkfs ~disk:t.disk geom

let mount ?(wb_unordered = false) t ~policy =
  let fs =
    Fs.mount ~engine:t.engine ~costs:t.costs ~mem:t.mem ~meta_alloc:t.meta_alloc
      ~pool_alloc:t.pool_alloc ~disk:t.disk ~policy ~hooks:t.hooks ~wb_unordered
  in
  t.fs <- Some fs;
  fs

(* ---------------- fault arming ---------------- *)

(* Behavioral faults model ONE modified kernel procedure that fires
   periodically (§3.1: "malloc is set to inject this error every 1000-4000
   times it is called") — arming is idempotent. *)
let rearm slot period = match slot with None -> arm period | Some a -> Some a

let arm_copy_overrun t ~period = t.overrun <- rearm t.overrun period
let arm_allocation_fault t ~period = t.alloc_fault <- rearm t.alloc_fault period
let arm_sync_fault t ~period = t.sync_fault <- rearm t.sync_fault period

let disarm_faults t =
  t.overrun <- None;
  t.alloc_fault <- None;
  t.sync_fault <- None

(* ---------------- kernel activity ---------------- *)

let kseg = Mmu.kseg_addr

(* Run one interpreted routine and return the result register. Charges
   simulated time for the instructions retired. Raises on trap or hang. *)
let run_routine t ~name ~entry ~args =
  let m = t.machine in
  Machine.resume m;
  let start_us = Engine.now t.engine in
  let before = Machine.instructions_retired m in
  List.iteri (fun i v -> Machine.set_reg m (i + 1) v) args;
  let stack = Layout.region t.layout Layout.Kernel_stack in
  Machine.set_reg m Machine.sp_reg (stack.Layout.base + stack.Layout.bytes - 64);
  Machine.set_reg m Machine.ra_reg t.kprogs.Kprogs.halt_pad;
  Machine.set_pc m entry;
  let result = Machine.run m ~max_instructions:t.config.activity_budget in
  let retired = Machine.instructions_retired m - before in
  Engine.advance_by t.engine (retired * t.config.instr_ns / 1000);
  if Trace.enabled t.obs then begin
    Trace.incr t.c_activities;
    Trace.emit t.obs Trace.Kernel
      (Trace.Activity { name; start_us; end_us = Engine.now t.engine })
  end;
  match result with
  | Machine.Halted -> Machine.reg m 1
  | Machine.Trapped trap -> crash_now t (Kcrash.Trap trap) ~during:("activity:" ^ name)
  | Machine.Running -> crash_now t Kcrash.Hang ~during:("activity:" ^ name)

let entry_of t name = (Kprogs.find t.kprogs name).Kprogs.entry

(* A source address for copies: a kernel-owned pool buffer (KSEG) or the
   heap node arena. *)
(* A buffer with at least [room] writable bytes: half the time a kernel
   pool buffer (physically addressed via KSEG, as the UBC is), otherwise a
   staging offset in the heap scratch area. The upper scratch offsets sit
   close to the free-list arena, where an overrun does real damage. *)
let pick_buffer ?(room = 512) t =
  match t.owned_pages with
  | pages when pages <> [] && Prng.bool t.prng ->
    kseg (List.nth pages (Prng.int t.prng (List.length pages)))
  | _ ->
    let offsets =
      Array.of_list
        (List.filter
           (fun off -> off + room <= Kheap.scratch_bytes)
           [ 0; 2048; 4096; 6144; 7168 ])
    in
    Kheap.scratch_addr t.heap + Prng.choose t.prng offsets

let churn_owned_pages t =
  if List.length t.owned_pages < 4 || (Prng.chance t.prng 0.5 && List.length t.owned_pages < 12)
  then begin
    match Page_alloc.alloc t.pool_alloc with
    | Some p ->
      (* Fill freshly-grabbed kernel buffers with recognizable junk. *)
      Phys_mem.fill t.mem p ~len:Phys_mem.page_size 'K';
      t.owned_pages <- p :: t.owned_pages
    | None -> ()
  end
  else begin
    match t.owned_pages with
    | p :: rest ->
      t.owned_pages <- rest;
      Page_alloc.free t.pool_alloc p
    | [] -> ()
  end

(* A random page anywhere in the pool — possibly a file-cache page. Reads
   of it are legal; this is how the checksum/scan routines touch the UBC. *)
let pick_pool_page t =
  let pool = Layout.region t.layout Layout.Page_pool in
  let pages = pool.Layout.bytes / Phys_mem.page_size in
  pool.Layout.base + (Prng.int t.prng pages * Phys_mem.page_size)

let do_copy t ~name ~len_scale =
  let src = pick_buffer t and dst = pick_buffer t in
  let len = Prng.int_in t.prng 16 len_scale in
  (* The paper's copy-overrun fault perturbs the length of kernel bcopy
     calls; interpreted copies participate too. *)
  let len =
    if triggered ~weight:activity_weight t t.overrun then len + overrun_length t else len
  in
  ignore (run_routine t ~name ~entry:(entry_of t name) ~args:[ src; dst; len ])

let do_word_copy t =
  let src = pick_buffer ~room:2048 t and dst = pick_buffer ~room:2048 t in
  let words = Prng.int_in t.prng 8 256 in
  let words =
    if triggered ~weight:activity_weight t t.overrun then words + ((overrun_length t + 7) / 8)
    else words
  in
  ignore (run_routine t ~name:"k_word_copy" ~entry:(entry_of t "k_word_copy")
            ~args:[ src; dst; words ])

let do_list_insert t =
  match t.in_use with
  | [] -> ()
  | node :: rest ->
    t.in_use <- rest;
    ignore
      (run_routine t ~name:"k_list_insert" ~entry:(entry_of t "k_list_insert")
         ~args:[ Kheap.free_head_addr t.heap; node ])

let do_list_remove t =
  (* Keep a healthy reserve on the free list: a legitimately drained list
     would fire the empty-list consistency check without any fault. *)
  if List.length t.in_use >= Kheap.node_count - 32 then do_list_insert t
  else begin
    let node =
      run_routine t ~name:"k_list_remove" ~entry:(entry_of t "k_list_remove")
        ~args:[ Kheap.free_head_addr t.heap ]
    in
    t.in_use <- node :: t.in_use;
    if triggered ~weight:activity_weight t t.alloc_fault then begin
      (* Premature free 0-256 ms from now, while the node is still in use. *)
      let delay = Prng.int_in t.prng 0 256_000 in
      ignore
        (Engine.schedule_after t.engine ~delay (fun _ ->
             if List.mem node t.in_use then Kheap.native_list_insert t.heap ~node))
    end
  end

let do_node_use t =
  (* "Using" an allocated node: bump a counter stored in it. If the node was
     prematurely freed and relinked, this clobbers a live next pointer and
     the free list decays into wild loads/stores. *)
  match t.in_use with
  | [] -> ()
  | nodes ->
    let node = List.nth nodes (Prng.int t.prng (List.length nodes)) in
    ignore
      (run_routine t ~name:"k_counter_bump" ~entry:(entry_of t "k_counter_bump")
         ~args:[ node; max_int / 2 ])

let do_locks t =
  let lock = Kheap.lock_addr t.heap (Prng.int t.prng 8) in
  let skip_acquire = triggered ~weight:activity_weight t t.sync_fault in
  if not skip_acquire then
    ignore (run_routine t ~name:"k_lock_acquire" ~entry:(entry_of t "k_lock_acquire")
              ~args:[ lock ]);
  let skip_release = triggered ~weight:activity_weight t t.sync_fault in
  if not skip_release then
    ignore (run_routine t ~name:"k_lock_release" ~entry:(entry_of t "k_lock_release")
              ~args:[ lock ])

let do_bitmap t =
  let result =
    run_routine t ~name:"k_bitmap_alloc" ~entry:(entry_of t "k_bitmap_alloc")
      ~args:[ Kheap.bitmap_addr t.heap; Kheap.bitmap_bytes ]
  in
  if result = -1 then Kheap.reset_bitmap t.heap

let do_counter t =
  let idx = Prng.int t.prng 6 in
  let addr = Kheap.counter_addr t.heap idx in
  if Kheap.read_word t.heap addr > 900_000 then Kheap.write_word t.heap addr 0;
  ignore
    (run_routine t ~name:"k_counter_bump" ~entry:(entry_of t "k_counter_bump")
       ~args:[ addr; 1_000_000 ])

let do_chase t =
  let head = Kheap.read_word t.heap (Kheap.chase_head_addr t.heap) in
  ignore
    (run_routine t ~name:"k_ptr_chase" ~entry:(entry_of t "k_ptr_chase")
       ~args:[ head; 2 * Kheap.chase_count ])

let do_queue t =
  ignore
    (run_routine t ~name:"k_queue_put" ~entry:(entry_of t "k_queue_put")
       ~args:
         [
           Kheap.ring_base_addr t.heap;
           Kheap.ring_index_addr t.heap;
           1 + Prng.int t.prng 1000;
           Kheap.ring_capacity;
         ])

let do_scan t =
  let addr = kseg (pick_pool_page t) in
  let len = Prng.int_in t.prng 64 768 in
  ignore (run_routine t ~name:"k_mem_scan" ~entry:(entry_of t "k_mem_scan") ~args:[ addr; len ])

let do_checksum t =
  let addr =
    if Prng.bool t.prng then pick_buffer t else kseg (pick_pool_page t)
  in
  let len = Prng.int_in t.prng 32 512 in
  ignore (run_routine t ~name:"k_checksum" ~entry:(entry_of t "k_checksum") ~args:[ addr; len ])

let do_bzero t =
  let dst = pick_buffer t in
  let len = Prng.int_in t.prng 16 512 in
  ignore (run_routine t ~name:"k_bzero" ~entry:(entry_of t "k_bzero") ~args:[ dst; len ])

let do_compound t =
  let src = pick_buffer t and dst = pick_buffer t in
  let len = Prng.int_in t.prng 16 256 in
  let len =
    if triggered ~weight:activity_weight t t.overrun then len + overrun_length t else len
  in
  ignore (run_routine t ~name:"k_compound" ~entry:(entry_of t "k_compound") ~args:[ src; dst; len ])

(* Interrupt return: reload the saved continuation from the stack frame
   and jump to it. Intact, it lands on the halt pad; a flipped bit sends
   the CPU into the weeds. *)
let do_interrupt_return t =
  let m = t.machine in
  Machine.resume m;
  let before = Machine.instructions_retired m in
  let target = Phys_mem.read_u64 t.mem t.frame_addr in
  Machine.set_reg m Machine.ra_reg t.kprogs.Kprogs.halt_pad;
  Machine.set_pc m target;
  let result = Machine.run m ~max_instructions:t.config.activity_budget in
  Engine.advance_by t.engine
    ((Machine.instructions_retired m - before) * t.config.instr_ns / 1000);
  (match result with
  | Machine.Halted -> ()
  | Machine.Trapped trap -> crash_now t (Kcrash.Trap trap) ~during:"interrupt return"
  | Machine.Running -> crash_now t Kcrash.Hang ~during:"interrupt return")

(* Deferred copy: reload spilled destination and length from the stack
   frame and run the kernel bcopy with them. Flipped spills turn this into
   a wild store — possibly into the file cache. *)
let do_spilled_copy t =
  let dst = Phys_mem.read_u64 t.mem (t.frame_addr + 8) in
  let len = Phys_mem.read_u64 t.mem (t.frame_addr + 16) in
  ignore
    (run_routine t ~name:"k_bcopy" ~entry:(entry_of t "k_bcopy")
       ~args:[ Kheap.scratch_addr t.heap; dst; len ])

let do_dlist_insert t =
  if t.dlist_next >= Kheap.dlist_count then begin
    Kheap.reset_dlist t.heap;
    t.dlist_next <- 0
  end;
  let node = Kheap.dlist_node_addr t.heap t.dlist_next in
  t.dlist_next <- t.dlist_next + 1;
  ignore
    (run_routine t ~name:"k_dlist_insert" ~entry:(entry_of t "k_dlist_insert")
       ~args:[ Kheap.dlist_head_addr t.heap; node ])

let do_hash_insert t =
  let key = Kheap.hash_key_addr t.heap (t.hash_next mod Kheap.hash_buckets) in
  t.hash_next <- t.hash_next + 1;
  ignore
    (run_routine t ~name:"k_hash_insert" ~entry:(entry_of t "k_hash_insert")
       ~args:[ Kheap.hash_table_addr t.heap; key; Kheap.hash_buckets ])

(* The legitimate I/O write path driven by an in-heap request descriptor.
   Normally it targets the heap scratch buffer; if faults corrupted the
   descriptor, the legitimate interface happily writes elsewhere — indirect
   corruption, which bypasses protection (§3.2). *)
let do_descriptor_write t =
  let dst = Kheap.read_word t.heap t.desc_addr in
  let len = Kheap.read_word t.heap (t.desc_addr + 8) in
  let len = max 1 (min len 4096) in
  if not (Phys_mem.in_range t.mem dst ~len) then
    crash_now t (Kcrash.Trap (Machine.Illegal_address dst)) ~during:"io request"
  else begin
    let page = dst - (dst mod Phys_mem.page_size) in
    t.hooks.Hooks.open_write ~paddr:page;
    let len = min len (page + Phys_mem.page_size - dst) in
    Phys_mem.blit_in t.mem dst (Prng.bytes t.prng len);
    t.hooks.Hooks.close_write ~paddr:page
  end

(* Static so a burst does not rebuild nineteen closures per call; the
   weights and order are part of the workload's random schedule. *)
let activity_actions =
  [|
    ((fun t -> do_copy t ~name:"k_bcopy" ~len_scale:384), 12.);
    (do_word_copy, 12.);
    (do_compound, 6.);
    (do_bzero, 5.);
    (do_checksum, 8.);
    (do_scan, 8.);
    (do_list_remove, 8.);
    (do_list_insert, 8.);
    (do_node_use, 6.);
    (do_locks, 8.);
    (do_bitmap, 5.);
    (do_counter, 5.);
    (do_chase, 5.);
    (do_queue, 5.);
    (do_descriptor_write, 3.);
    (do_interrupt_return, 4.);
    (do_spilled_copy, 4.);
    (do_dlist_insert, 5.);
    (do_hash_insert, 5.);
  |]

let run_activity t =
  t.bursts <- t.bursts + 1;
  if Prng.chance t.prng 0.15 then churn_owned_pages t;
  let action = Prng.choose_weighted t.prng activity_actions in
  action t

(* ---------------- world-template rewind ---------------- *)

type checkpoint = {
  ck_prng : int64;
  ck_mmu : Mmu.checkpoint;
  ck_machine : Machine.checkpoint;
  ck_pool_alloc : Page_alloc.checkpoint;
  ck_meta_alloc : Page_alloc.checkpoint;
  ck_fs : Fs.t option;
  ck_bursts : int;
  ck_owned_pages : int list;
  ck_in_use : int list;
  ck_overrun : (int * int) option;
  ck_alloc_fault : (int * int) option;
  ck_sync_fault : (int * int) option;
  ck_overrun_bytes : int;
  ck_dlist_next : int;
  ck_hash_next : int;
  ck_crash_flushed : int * int;
}

let save_armed = function None -> None | Some a -> Some (a.period, a.countdown)
let load_armed = function None -> None | Some (p, c) -> Some { period = p; countdown = c }

let checkpoint t =
  {
    ck_prng = Prng.state t.prng;
    ck_mmu = Mmu.checkpoint t.mmu;
    ck_machine = Machine.checkpoint t.machine;
    ck_pool_alloc = Page_alloc.checkpoint t.pool_alloc;
    ck_meta_alloc = Page_alloc.checkpoint t.meta_alloc;
    ck_fs = t.fs;
    ck_bursts = t.bursts;
    ck_owned_pages = t.owned_pages;
    ck_in_use = t.in_use;
    ck_overrun = save_armed t.overrun;
    ck_alloc_fault = save_armed t.alloc_fault;
    ck_sync_fault = save_armed t.sync_fault;
    ck_overrun_bytes = t.overrun_filecache_bytes;
    ck_dlist_next = t.dlist_next;
    ck_hash_next = t.hash_next;
    ck_crash_flushed = (t.crash_flushed_data, t.crash_flushed_meta);
  }

let restore t ck =
  Prng.set_state t.prng ck.ck_prng;
  Mmu.restore t.mmu ck.ck_mmu;
  Machine.restore t.machine ck.ck_machine;
  Page_alloc.restore t.pool_alloc ck.ck_pool_alloc;
  Page_alloc.restore t.meta_alloc ck.ck_meta_alloc;
  t.fs <- ck.ck_fs;
  t.crash <- None;
  t.bursts <- ck.ck_bursts;
  t.owned_pages <- ck.ck_owned_pages;
  t.in_use <- ck.ck_in_use;
  t.overrun <- load_armed ck.ck_overrun;
  t.alloc_fault <- load_armed ck.ck_alloc_fault;
  t.sync_fault <- load_armed ck.ck_sync_fault;
  t.overrun_filecache_bytes <- ck.ck_overrun_bytes;
  t.dlist_next <- ck.ck_dlist_next;
  t.hash_next <- ck.ck_hash_next;
  let fd, fm = ck.ck_crash_flushed in
  t.crash_flushed_data <- fd;
  t.crash_flushed_meta <- fm

(* ---------------- crash handling ---------------- *)

let crash_system t info =
  t.crash <- Some info;
  if Trace.enabled t.obs then
    Trace.emit t.obs Trace.Kernel
      (Trace.Crash { message = Kcrash.message_of info; during = info.Kcrash.during });
  (match t.fs with
  | Some fs ->
    (* Rio's panic is modified to NOT write dirty data back (§2.3). The
       default panic tries to push dirty buffers out — including any
       corrupted ones, which is how memory corruption reaches disk. Give
       the queue a moment, then cut the power to the I/O subsystem.
       Record how much each flush actually pushed: these counts are what
       lets forensics attribute corruption that PROPAGATED through the
       panic path rather than preceding it. Only a file-system error may
       cut the flush short: anything else is a simulator bug and must
       reach the report. *)
    if not (Fs.rules (Fs.policy fs)).Fs.trusts_memory then begin
      try
        let data = Rio_fs.Block_cache.flush_dirty (Fs.data_cache fs) ~sync:false () in
        let meta = Rio_fs.Block_cache.flush_dirty (Fs.meta_cache fs) ~sync:false () in
        t.crash_flushed_data <- t.crash_flushed_data + data;
        t.crash_flushed_meta <- t.crash_flushed_meta + meta;
        if Trace.enabled t.obs then
          Trace.emit t.obs Trace.Kernel (Trace.Crash_flush { data; meta });
        Engine.advance_by t.engine (Rio_util.Units.msec 200)
      with Rio_fs.Fs_types.Fs_error _ -> ()
    end;
    Fs.crash fs
  | None -> Disk.crash t.disk);
  t.fs <- None
