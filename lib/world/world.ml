module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Kernel = Rio_kernel.Kernel
module Fs = Rio_fs.Fs
module Phys_mem = Rio_mem.Phys_mem
module Disk = Rio_disk.Disk
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Trace = Rio_obs.Trace

(* The frozen template: one O(1) copy-on-write memory snapshot plus a
   host-side checkpoint of every mutable structure the stack owns. The
   page and disk-sector *contents* are covered by [snap] and the disk
   checkpoint's deep copy; everything else is cursors, counters, caches,
   and PRNG state. *)
type template = {
  snap : Phys_mem.snapshot;
  eng_ck : Engine.checkpoint;
  disk_ck : Disk.checkpoint;
  kern_ck : Kernel.checkpoint;
  rio_ck : Rio_cache.checkpoint option;
  fs_ck : Fs.checkpoint;
}

type t = {
  seed : int;
  config : Kernel.config;
  costs : Costs.t;
  engine : Engine.t;
  kernel : Kernel.t;
  rio : Rio_cache.t option; (* [None]: a disk-based world, no Rio cache *)
  fs : Fs.t;
  policy : Fs.policy;
  (* The Rio cache this world boots with, re-created by every reboot;
     [None] on a disk-based world. *)
  attach_rio : Kernel.t -> Rio_cache.t option;
  (* Memories cold reboots allocated, retired at the next restore or at
     dispose. *)
  mutable cold_mems : Phys_mem.t list;
  mutable template : template option;
  mutable resets : (unit -> unit) list; (* registration order *)
  mutable restores : int;
  mutable pages_restored : int;
}

let create ?(obs = Trace.null) ?config ?(costs = Costs.default) ?(rio = true)
    ?(protection = true) ?(shadow = true) ?(registry = true) ?(policy = Fs.Rio_policy) ?backend
    ?(wb_unordered = false) ~seed () =
  let engine = Engine.create ~obs () in
  let config =
    match config with
    | Some c -> { c with Kernel.seed }
    | None -> Kernel.config_with_seed seed
  in
  let config =
    match backend with
    | Some b -> { config with Kernel.disk_backend = b }
    | None -> config
  in
  let attach_rio k =
    if rio then
      Some
        (Rio_cache.create ~shadow ~registry ~mem:(Kernel.mem k) ~layout:(Kernel.layout k)
           ~mmu:(Kernel.mmu k) ~engine ~costs ~hooks:(Kernel.hooks k)
           ~pool_alloc:(Kernel.pool_alloc k) ~protection ~dev:1 ())
    else None
  in
  let kernel = Kernel.boot ~engine ~costs config in
  Kernel.format kernel;
  let rio = attach_rio kernel in
  let fs = Kernel.mount ~wb_unordered kernel ~policy in
  {
    seed;
    config;
    costs;
    engine;
    kernel;
    rio;
    fs;
    policy;
    attach_rio;
    cold_mems = [];
    template = None;
    resets = [];
    restores = 0;
    pages_restored = 0;
  }

let seed t = t.seed
let config t = t.config
let costs t = t.costs
let engine t = t.engine
let kernel t = t.kernel
let rio t =
  match t.rio with
  | Some r -> r
  | None -> invalid_arg "World.rio: world built without a Rio cache"
let fs t = t.fs
let mem t = Kernel.mem t.kernel
let disk t = Kernel.disk t.kernel
let hooks t = Kernel.hooks t.kernel
let layout t = Kernel.layout t.kernel

(* ---------------- recovery ---------------- *)

(* The rebooted kernel gets this world's Rio cache, if it has one, and an
   ordered mount: the planted write-behind bug is in the crashed kernel,
   not in the one that recovers. *)
let remount t k =
  ignore (t.attach_rio k : Rio_cache.t option);
  Kernel.mount k ~policy:t.policy

let warm_reboot t =
  let recovered = ref None in
  let report =
    Warm_reboot.perform ~mem:(mem t) ~disk:(disk t) ~layout:(layout t) ~engine:t.engine
      ~reboot:(fun () ->
        let fs =
          remount t
            (Kernel.boot_warm ~engine:t.engine ~costs:t.costs t.config ~mem:(mem t)
               ~disk:(disk t))
        in
        recovered := Some fs;
        fs)
  in
  match !recovered with Some fs -> (report, fs) | None -> assert false

let cold_reboot t =
  let k = Kernel.boot_on_disk ~engine:t.engine ~costs:t.costs t.config ~disk:(disk t) in
  t.cold_mems <- Kernel.mem k :: t.cold_mems;
  remount t k

let retire_cold_mems t =
  List.iter Phys_mem.retire t.cold_mems;
  t.cold_mems <- []

(* ---------------- templates ---------------- *)

let on_restore t f = t.resets <- t.resets @ [ f ]

let frozen t = t.template <> None

let freeze t =
  if t.template <> None then invalid_arg "World.freeze: already frozen";
  (* Disk.checkpoint refuses a non-empty request queue (an async write
     between issue and completion has no well-defined rewind point), so
     retire anything still in flight from the setup workload first. The
     drain advances the simulated clock, which is fine: the template IS
     the post-setup instant, and every restore rewinds to it exactly. *)
  Disk.drain (Kernel.disk t.kernel);
  t.template <-
    Some
      {
        snap = Phys_mem.snapshot (Kernel.mem t.kernel);
        eng_ck = Engine.checkpoint t.engine;
        disk_ck = Disk.checkpoint (Kernel.disk t.kernel);
        kern_ck = Kernel.checkpoint t.kernel;
        rio_ck = Option.map Rio_cache.checkpoint t.rio;
        fs_ck = Fs.checkpoint t.fs;
      }

let restore t =
  match t.template with
  | None -> invalid_arg "World.restore: not frozen"
  | Some tpl ->
    (* Client resets first (drop stray probe captures, rewind payload
       cursors): they must not depend on the rewound state. *)
    List.iter (fun f -> f ()) t.resets;
    retire_cold_mems t;
    let pages = Phys_mem.restore_keep (Kernel.mem t.kernel) tpl.snap in
    (* Engine first: it clears the event queue, so Fs.restore (inside the
       kernel's fs handle) can re-schedule the update daemon at its
       checkpointed absolute due time. *)
    Engine.restore t.engine tpl.eng_ck;
    Disk.restore (Kernel.disk t.kernel) tpl.disk_ck;
    Kernel.restore t.kernel tpl.kern_ck;
    (match (t.rio, tpl.rio_ck) with
    | Some r, Some ck -> Rio_cache.restore r ck
    | None, None -> ()
    | Some _, None | None, Some _ -> assert false);
    Fs.restore t.fs tpl.fs_ck;
    t.restores <- t.restores + 1;
    t.pages_restored <- t.pages_restored + pages;
    pages

let restores t = t.restores
let pages_restored t = t.pages_restored

let dispose t =
  retire_cold_mems t;
  (match t.template with
  | Some tpl -> Phys_mem.release (Kernel.mem t.kernel) tpl.snap
  | None -> ());
  t.template <- None;
  Phys_mem.retire (Kernel.mem t.kernel)
