(** The simulated operating system kernel.

    Composes the machine (memory, MMU, interpreted CPU), the disk, the
    kernel heap, the synthetic kernel-routine corpus, and the file system
    into one bootable system — the thing the crash campaign boots, runs,
    faults, and crashes 1950 times.

    Two execution worlds share the same physical memory:

    - {b Native}: file-system semantics (OCaml), charging simulated time.
    - {b Interpreted}: the kernel activity — short bursts of {!Rio_kasm}
      routines run between workload operations, plus the bcopy data path's
      fault envelope. Wild stores from this world are what corrupt memory,
      and what Rio's protection traps.

    The behavioral faults of §3.1 that cannot be expressed as text mutations
    are armed here: copy overrun (bcopy writes too many bytes, checked
    against the MMU so protection can catch it), allocation faults
    (premature free of an in-use node), and synchronization faults (lock
    acquire/release skipped). *)

type t

type config = {
  layout_config : Rio_mem.Layout.config;
  tlb_entries : int;
  disk_sectors : int;
  disk_backend : Rio_disk.Backend.kind;
      (** Which persistence backend {!boot} creates (default SCSI). *)
  seed : int;
  instr_ns : int;  (** Simulated cost of one interpreted instruction. *)
  activity_budget : int;
      (** Instruction budget per activity routine; exhaustion = hang. *)
}

val default_config : config
(** 16 MB machine, 64-entry TLB, 64K-sector (32 MB) SCSI disk, 6 ns/instr. *)

val config_with_seed : int -> config

val boot : engine:Rio_sim.Engine.t -> costs:Rio_sim.Costs.t -> config -> t
(** Create memory/MMU/CPU/disk, load the kernel text, build heap
    structures. The disk is blank: call {!format} (or reuse a disk via
    {!boot_on_disk}). *)

val boot_on_disk : engine:Rio_sim.Engine.t -> costs:Rio_sim.Costs.t -> config -> disk:Rio_disk.Disk.t -> t
(** Boot against an existing disk (cold reboot after a crash: fresh
    memory). *)

val boot_warm :
  engine:Rio_sim.Engine.t ->
  costs:Rio_sim.Costs.t ->
  config ->
  mem:Rio_mem.Phys_mem.t ->
  disk:Rio_disk.Disk.t ->
  t
(** Warm reboot: reuse the surviving physical memory (the DEC Alpha reset
    path that preserves DRAM, §5). Only the kernel-text and heap regions
    are reinitialized. *)

(** {1 Accessors} *)

val engine : t -> Rio_sim.Engine.t

(** The flight recorder inherited from the engine at boot
    ({!Rio_obs.Trace.null} when tracing is off). *)
val obs : t -> Rio_obs.Trace.t
val costs : t -> Rio_sim.Costs.t
val mem : t -> Rio_mem.Phys_mem.t
val layout : t -> Rio_mem.Layout.t
val mmu : t -> Rio_vm.Mmu.t
val machine : t -> Rio_cpu.Machine.t
val disk : t -> Rio_disk.Disk.t
val kprogs : t -> Rio_kasm.Kprogs.t
val heap : t -> Kheap.t
val hooks : t -> Rio_fs.Hooks.t
val pool_alloc : t -> Rio_mem.Page_alloc.t

val owned_pool_pages : t -> int list
(** Pool pages currently held as kernel buffers (not file cache). *)

val overrun_filecache_bytes : t -> int
(** Bytes that armed copy overruns have written into file-cache regions
    (fault-propagation tracing). *)

(** {1 File system} *)

val format : t -> unit
(** mkfs with a geometry derived from the machine (swap covers memory). *)

val mount : ?wb_unordered:bool -> t -> policy:Rio_fs.Fs.policy -> Rio_fs.Fs.t
(** Mount through the kernel's hooks (so the bcopy fault envelope applies);
    remembers the fs for the panic path. [wb_unordered] (default false)
    plants the write-behind ordering bug for the fuzzer's ablation matrix
    — see {!Rio_fs.Fs.mount}. *)

val fs : t -> Rio_fs.Fs.t option

(** {1 Kernel activity} *)

val run_activity : t -> unit
(** One burst of interpreted kernel work (a few hundred to a few thousand
    instructions). Raises {!Kcrash.Crashed} if the machine traps or hangs. *)

val activity_bursts : t -> int

(** {1 Fault arming (used by the injector)} *)

val arm_copy_overrun : t -> period:int -> unit
(** Every ~[period] bcopy calls, overrun by the paper's length distribution
    (50% 1 byte, 44% 2–1024, 6% 2 KB–4 KB). *)

val arm_allocation_fault : t -> period:int -> unit
(** Every ~[period] allocations, prematurely free the block 0–256 ms
    later. *)

val arm_sync_fault : t -> period:int -> unit
(** Every ~[period] lock operations, skip the acquire or the release. *)

val disarm_faults : t -> unit

(** {1 Crash lifecycle} *)

val crash_system : t -> Kcrash.info -> unit
(** Handle a caught crash: record it, run the panic path (non-Rio policies
    attempt to flush dirty buffers, propagating any corruption to disk —
    Rio's modified panic does not, §2.3), then fail the in-flight disk
    request. The kernel is dead afterwards. *)

val crash_info : t -> Kcrash.info option

val crash_flushed : t -> int * int
(** [(data, meta)]: buffers the panic path pushed to disk across every
    {!crash_system} this kernel has handled — the crash-propagation
    channel. Each crash also emits a {!Rio_obs.Trace.Crash_flush} event
    with the per-crash counts so forensics can attribute propagated
    corruption. *)

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture everything kernel-side a trial mutates: the kernel PRNG, the
    MMU (PTE bits, TLB, ABOX), the CPU register file, both page
    allocators, the mounted-fs handle, the activity/fault bookkeeping.
    The heap, stack frame, and descriptor live in simulated memory and
    rewind with the memory snapshot; the file system and disk have their
    own checkpoints. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint of the same boot, clearing any recorded
    crash. *)
