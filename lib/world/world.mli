(** World templates: snapshot/restore trial setup.

    Every crash trial needs the same pristine post-mount world — engine,
    booted kernel, formatted disk, Rio cache, mounted file system. The
    campaign used to rebuild it from scratch for every attempt (~ms of
    mkfs + mount each time). A {e template} builds it once per
    [(spec, seed)] per domain, freezes it with the O(1) copy-on-write
    {!Rio_mem.Phys_mem.snapshot}, and between attempts rewinds in
    O(dirty pages): the memory snapshot covers every byte of simulated
    RAM, and per-module checkpoints cover the host-side mutable state
    (PRNG cursors, event queue, caches, fd tables, fault bookkeeping).

    Restores happen at attempt {e start}, not end — an exception escaping
    one attempt can never poison the next. Nothing leaks across attempts:
    not PRNG state, not trace rings, not probe captures (clients register
    {!on_restore} hooks for host state the world cannot see, e.g. Vista
    log cursors).

    A restored world is byte-for-byte the world a fresh build produces —
    the [--reference] mode ({!Rio_util.Fastpath}[ off]), under which the
    trial engine builds every world from scratch, exists to prove it on
    demand.

    The world also owns the two recovery sequences of §2.2 ({!warm_reboot},
    {!cold_reboot}), so every harness crashes and recovers through one
    path. *)

type t

val create :
  ?obs:Rio_obs.Trace.t ->
  ?config:Rio_kernel.Kernel.config ->
  ?costs:Rio_sim.Costs.t ->
  ?rio:bool ->
  ?protection:bool ->
  ?shadow:bool ->
  ?registry:bool ->
  ?policy:Rio_fs.Fs.policy ->
  ?backend:Rio_disk.Backend.kind ->
  ?wb_unordered:bool ->
  seed:int ->
  unit ->
  t
(** Build the pristine world: engine, [Kernel.boot] with
    [config_with_seed seed] (or [config] with [seed] spliced in — the
    harness's paper-scale machines), format, [Rio_cache.create] (with the
    given protection/shadow/registry toggles), mount. [~rio:false] skips
    the Rio cache entirely — a disk-based world ({!rio} then raises).
    [costs] is the simulated cost model (the ablations vary the update
    interval and the disk). [backend] selects the persistence backend
    (spliced into the kernel config over whatever [config] says);
    [wb_unordered] plants the write-behind ordering bug (see
    {!Rio_fs.Fs.mount}). Defaults: null trace, {!Rio_sim.Costs.default},
    everything on, [Rio_policy], SCSI backend, ordered. *)

(** {1 Accessors} *)

val seed : t -> int
val config : t -> Rio_kernel.Kernel.config
val costs : t -> Rio_sim.Costs.t
val engine : t -> Rio_sim.Engine.t
val kernel : t -> Rio_kernel.Kernel.t

val rio : t -> Rio_core.Rio_cache.t
(** Raises [Invalid_argument] on a [~rio:false] world. *)

val fs : t -> Rio_fs.Fs.t
val mem : t -> Rio_mem.Phys_mem.t
val disk : t -> Rio_disk.Disk.t
val hooks : t -> Rio_fs.Hooks.t
val layout : t -> Rio_mem.Layout.t

(** {1 Recovery}

    Both sequences reboot on this world's engine, cost model and kernel
    config, re-create the Rio cache only if the world has one (with its
    protection/shadow/registry toggles), and mount with the world's policy
    — always ordered, even on a [wb_unordered] world: the planted bug
    lives in the crashed kernel, not the recovered one. The caller crashes
    the world first ({!Rio_fs.Fs.crash} or
    {!Rio_kernel.Kernel.crash_system}). The world's accessors keep
    naming the crashed stack; the recovered file system is returned. *)

val warm_reboot : t -> Rio_core.Warm_reboot.report * Rio_fs.Fs.t
(** Warm reboot on the surviving memory ({!Rio_core.Warm_reboot.perform}):
    dump to swap, restore metadata from the registry, fsck, warm-boot the
    kernel on the same memory, mount, restore data. *)

val cold_reboot : t -> Rio_fs.Fs.t
(** Cold reboot on the disk alone: boot a kernel with fresh memory on this
    world's disk and mount. Runs no fsck — that verdict stays with the
    caller, who runs {!Rio_fs.Fsck} first and decides whether to reboot at
    all. The fresh memory is retired at the next {!restore} or at
    {!dispose}. Raises [Rio_fs.Fs_types.Fs_error] when the image is
    unmountable. *)

(** {1 Template lifecycle} *)

val freeze : t -> unit
(** Take the memory snapshot and all host-side checkpoints. Call once,
    after any client setup that should be part of the template (probe
    installation, payload files). Raises [Invalid_argument] if already
    frozen. *)

val frozen : t -> bool

val on_restore : t -> (unit -> unit) -> unit
(** Register a host-side reset hook, run (in registration order) at the
    {e start} of every {!restore}, before any state rewinds. For client
    state the world cannot see: probe captures, Vista cursors. *)

val restore : t -> int
(** Rewind everything to the frozen template (retiring any memory a
    {!cold_reboot} allocated since); returns the number of dirty pages
    blitted back. The snapshot is kept — restore again as
    many times as needed. Raises [Invalid_argument] if not frozen. *)

val restores : t -> int
(** Total {!restore} calls on this world (microbench bookkeeping). *)

val pages_restored : t -> int
(** Total dirty pages blitted back across all restores. *)

val dispose : t -> unit
(** Release the template snapshot (if any) and retire the world's
    physical memory, and any a cold reboot allocated (asserts no leaked
    snapshots — a leak here means a probe capture was never dropped). *)
