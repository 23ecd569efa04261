(* Tests for the Rio core: registry, protection, checksums, shadow paging,
   and the warm reboot. *)

module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Kernel = Rio_kernel.Kernel
module Layout = Rio_mem.Layout
module Phys_mem = Rio_mem.Phys_mem
module Page_alloc = Rio_mem.Page_alloc
module Mmu = Rio_vm.Mmu
module Machine = Rio_cpu.Machine
module Isa = Rio_cpu.Isa
module Fs = Rio_fs.Fs
module Registry = Rio_core.Registry
module Protect = Rio_core.Protect
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Pattern = Rio_util.Pattern

let check = Alcotest.check

(* A fully wired Rio system on the small machine. *)
let rio_system ?(seed = 1) ~protection () =
  let engine = Engine.create () in
  let kernel = Kernel.boot ~engine ~costs:Costs.default (Kernel.config_with_seed seed) in
  Kernel.format kernel;
  let rio =
    Rio_cache.create ~mem:(Kernel.mem kernel) ~layout:(Kernel.layout kernel)
      ~mmu:(Kernel.mmu kernel) ~engine ~costs:Costs.default ~hooks:(Kernel.hooks kernel)
      ~pool_alloc:(Kernel.pool_alloc kernel) ~protection ~dev:1 ()
  in
  let fs = Kernel.mount kernel ~policy:Fs.Rio_policy in
  (engine, kernel, rio, fs)

(* ---------------- registry ---------------- *)

let registry_fixture () =
  let mem = Phys_mem.create ~bytes_total:(4 * 1024 * 1024) in
  let layout = Layout.create Layout.default_config in
  (mem, layout, Registry.create ~mem ~region:(Layout.region layout Layout.Registry))

let test_registry_register_find () =
  let _, _, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:0xABCD;
  (match Registry.find reg ~home_paddr:8192 with
  | Some e ->
    check Alcotest.int "ino" 5 e.Registry.ino;
    check Alcotest.int "blkno" 10 e.Registry.blkno;
    check Alcotest.int "checksum" 0xABCD e.Registry.checksum;
    check Alcotest.bool "not changing" false e.Registry.changing
  | None -> Alcotest.fail "entry missing");
  check Alcotest.int "live" 1 (Registry.live_entries reg)

let test_registry_update_in_place () =
  let _, _, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:1;
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:4096 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:2;
  check Alcotest.int "still one entry" 1 (Registry.live_entries reg);
  match Registry.find reg ~home_paddr:8192 with
  | Some e -> check Alcotest.int "updated size" 4096 e.Registry.size
  | None -> Alcotest.fail "entry missing"

let test_registry_unregister () =
  let _, _, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Meta_buffer ~checksum:1;
  Registry.unregister reg ~home_paddr:8192;
  check Alcotest.int "empty" 0 (Registry.live_entries reg);
  check Alcotest.bool "gone" true (Registry.find reg ~home_paddr:8192 = None);
  (* Idempotent. *)
  Registry.unregister reg ~home_paddr:8192

let test_registry_changing_and_redirect () =
  let _, _, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Meta_buffer ~checksum:1;
  Registry.set_changing reg ~home_paddr:8192 true;
  Registry.redirect reg ~home_paddr:8192 ~paddr:16384;
  (match Registry.find reg ~home_paddr:8192 with
  | Some e ->
    check Alcotest.bool "changing" true e.Registry.changing;
    check Alcotest.int "redirected" 16384 e.Registry.paddr;
    check Alcotest.int "home stays" 8192 e.Registry.home_paddr
  | None -> Alcotest.fail "entry missing");
  Registry.redirect reg ~home_paddr:8192 ~paddr:8192;
  Registry.set_changing reg ~home_paddr:8192 false;
  match Registry.find reg ~home_paddr:8192 with
  | Some e -> check Alcotest.bool "restored" true (e.Registry.paddr = 8192 && not e.Registry.changing)
  | None -> Alcotest.fail "entry missing"

let test_registry_survives_in_memory () =
  (* The registry's bytes live in simulated memory: parse them back from a
     raw dump, as the warm reboot does. *)
  let mem, layout, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:16384 ~size:100 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:77;
  let image = Phys_mem.dump mem in
  let parsed =
    Registry.parse_image ~image ~region:(Layout.region layout Layout.Registry)
      ~mem_bytes:(Bytes.length image)
  in
  check Alcotest.int "one entry" 1 (List.length parsed.Registry.entries);
  check Alcotest.int "no corruption" 0 parsed.Registry.corrupt_slots;
  let e = List.hd parsed.Registry.entries in
  check Alcotest.int "offset" 16384 e.Registry.offset;
  check Alcotest.int "checksum" 77 e.Registry.checksum

let test_registry_dev_bounds () =
  let _, _, reg = registry_fixture () in
  (* The slot stores dev in 16 bits; widths the slot cannot hold must be
     rejected at register time, not silently truncated onto the wrong
     volume. *)
  Registry.register reg ~home_paddr:8192 ~dev:0xFFFF ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:1;
  (match Registry.find reg ~home_paddr:8192 with
  | Some e -> check Alcotest.int "widest 16-bit dev survives" 0xFFFF e.Registry.dev
  | None -> Alcotest.fail "entry missing");
  List.iter
    (fun dev ->
      match
        Registry.register reg ~home_paddr:16384 ~dev ~ino:5 ~offset:0 ~size:8192 ~blkno:11
          ~kind:Registry.Data_buffer ~checksum:1
      with
      | () -> Alcotest.failf "dev %d accepted" dev
      | exception Rio_fs.Fs_types.Fs_error _ -> ())
    [ 0x10000; -1 ];
  check Alcotest.int "rejected registrations left no entry" 1 (Registry.live_entries reg)

let test_registry_plausible_checks_dev () =
  let mem_bytes = 4 * 1024 * 1024 in
  let e =
    {
      Registry.paddr = 8192;
      home_paddr = 8192;
      dev = 1;
      ino = 5;
      offset = 0;
      size = 100;
      blkno = 10;
      kind = Registry.Data_buffer;
      changing = false;
      checksum = 1;
    }
  in
  check Alcotest.bool "sane entry plausible" true (Registry.plausible ~mem_bytes e);
  check Alcotest.bool "dev past 16 bits is corrupt" false
    (Registry.plausible ~mem_bytes { e with Registry.dev = 0x10000 });
  check Alcotest.bool "negative dev is corrupt" false
    (Registry.plausible ~mem_bytes { e with Registry.dev = -1 })

let test_registry_parse_rejects_garbage () =
  let mem, layout, reg = registry_fixture () in
  Registry.register reg ~home_paddr:8192 ~dev:1 ~ino:5 ~offset:0 ~size:8192 ~blkno:10
    ~kind:Registry.Data_buffer ~checksum:1;
  (* Smash the slot with a wild store pattern. *)
  let region = Layout.region layout Layout.Registry in
  Phys_mem.fill mem region.Layout.base ~len:40 '\137';
  let image = Phys_mem.dump mem in
  let parsed =
    Registry.parse_image ~image ~region ~mem_bytes:(Bytes.length image)
  in
  check Alcotest.int "no entries" 0 (List.length parsed.Registry.entries);
  check Alcotest.int "slot counted corrupt" 1 parsed.Registry.corrupt_slots

let prop_registry_parse_never_crashes =
  QCheck.Test.make ~name:"parse_image survives arbitrary garbage" ~count:100
    QCheck.(pair small_int (list (pair (int_range 0 2000) (int_range 0 255))))
    (fun (_, writes) ->
      let mem, layout, _reg = registry_fixture () in
      let region = Layout.region layout Layout.Registry in
      List.iter
        (fun (off, v) ->
          if off < region.Layout.bytes then
            Phys_mem.write_u8 mem (region.Layout.base + off) v)
        writes;
      let image = Phys_mem.dump mem in
      let parsed = Registry.parse_image ~image ~region ~mem_bytes:(Bytes.length image) in
      (* Whatever the garbage, parsing terminates and every surviving entry
         is plausible. *)
      List.for_all
        (fun e ->
          e.Registry.size >= 0
          && e.Registry.size <= Phys_mem.page_size
          && e.Registry.home_paddr mod Phys_mem.page_size = 0)
        parsed.Registry.entries)

(* Free-slot order. The registry hands out slots exactly as a LIFO free
   list seeded with [List.init capacity] would; that list is the model.
   Slot numbers are read back from simulated memory: the slot whose home
   field names the page. *)

let slot_of mem region ~home_paddr =
  let cap = region.Layout.bytes / Registry.entry_bytes in
  let rec find s =
    if s >= cap then None
    else
      let a = region.Layout.base + (s * Registry.entry_bytes) in
      if Phys_mem.read_u8 mem (a + 34) <> 0 && Phys_mem.read_u64 mem (a + 8) = home_paddr then
        Some s
      else find (s + 1)
  in
  find 0

type slot_model = { mutable free : int list; slots : (int, int) Hashtbl.t }

let model_register m home =
  if not (Hashtbl.mem m.slots home) then
    match m.free with
    | slot :: rest ->
      m.free <- rest;
      Hashtbl.replace m.slots home slot
    | [] -> Alcotest.fail "model full"

let model_unregister m home =
  match Hashtbl.find_opt m.slots home with
  | Some slot ->
    Hashtbl.remove m.slots home;
    m.free <- slot :: m.free
  | None -> ()

let register_page reg home =
  Registry.register reg ~home_paddr:home ~dev:1 ~ino:3 ~offset:0 ~size:100 ~blkno:7
    ~kind:Registry.Data_buffer ~checksum:1

let check_slots msg mem region reg m =
  check Alcotest.int (msg ^ ": live") (Hashtbl.length m.slots) (Registry.live_entries reg);
  Hashtbl.iter
    (fun home slot ->
      check Alcotest.(option int) (Printf.sprintf "%s: slot of page 0x%x" msg home) (Some slot)
        (slot_of mem region ~home_paddr:home))
    m.slots

let random_slot_ops prng mem region reg m ~steps ~pages =
  for step = 1 to steps do
    let home = Random.State.int prng pages * Phys_mem.page_size in
    if Random.State.int prng 3 > 0 then begin
      register_page reg home;
      model_register m home
    end
    else begin
      Registry.unregister reg ~home_paddr:home;
      model_unregister m home
    end;
    if step mod 25 = 0 then check_slots (Printf.sprintf "step %d" step) mem region reg m
  done

let test_registry_slot_order () =
  let mem, layout, reg = registry_fixture () in
  let region = Layout.region layout Layout.Registry in
  let m = { free = List.init (Registry.capacity reg) Fun.id; slots = Hashtbl.create 64 } in
  random_slot_ops (Random.State.make [| 3 |]) mem region reg m ~steps:600 ~pages:48;
  check_slots "end" mem region reg m

let test_registry_full () =
  let _, _, reg = registry_fixture () in
  for i = 0 to Registry.capacity reg - 1 do
    register_page reg (i * Phys_mem.page_size)
  done;
  (match register_page reg (Registry.capacity reg * Phys_mem.page_size) with
  | () -> Alcotest.fail "registered past capacity"
  | exception Rio_fs.Fs_types.Fs_error _ -> ());
  (* A released slot is reusable at once. *)
  Registry.unregister reg ~home_paddr:(5 * Phys_mem.page_size);
  register_page reg (Registry.capacity reg * Phys_mem.page_size);
  check Alcotest.int "full again" (Registry.capacity reg) (Registry.live_entries reg)

let test_registry_checkpoint_slots () =
  (* Checkpoint mid-history (released slots pending and the never-used
     cursor part-way), wander off, restore: the restored registry must hand
     out the same slots as the model restored to the same point. *)
  let mem, layout, reg = registry_fixture () in
  let region = Layout.region layout Layout.Registry in
  let prng = Random.State.make [| 9 |] in
  let m = { free = List.init (Registry.capacity reg) Fun.id; slots = Hashtbl.create 64 } in
  random_slot_ops prng mem region reg m ~steps:200 ~pages:32;
  let ck = Registry.checkpoint reg in
  let snap = Phys_mem.snapshot mem in
  let m_free = m.free and m_slots = Hashtbl.copy m.slots in
  random_slot_ops prng mem region reg m ~steps:200 ~pages:64;
  Phys_mem.restore mem snap;
  Registry.restore reg ck;
  let m = { free = m_free; slots = m_slots } in
  check_slots "restored" mem region reg m;
  random_slot_ops (Random.State.make [| 10 |]) mem region reg m ~steps:200 ~pages:64;
  check_slots "after restore" mem region reg m

let prop_registry_parse_classifies_slots =
  (* A slot is free iff all 40 of its bytes are zero (the byte-wise rule
     the word-wise scan replaced): every other slot is an entry or corrupt. *)
  QCheck.Test.make ~name:"parse counts every non-zero slot" ~count:100
    QCheck.(list (pair (int_range 0 4000) (int_range 0 255)))
    (fun writes ->
      let mem, layout, _reg = registry_fixture () in
      let region = Layout.region layout Layout.Registry in
      List.iter
        (fun (off, v) ->
          if off < region.Layout.bytes then Phys_mem.write_u8 mem (region.Layout.base + off) v)
        writes;
      let image = Phys_mem.dump mem in
      let parsed = Registry.parse_image ~image ~region ~mem_bytes:(Bytes.length image) in
      let nonzero = ref 0 in
      for slot = 0 to (region.Layout.bytes / Registry.entry_bytes) - 1 do
        let pos = region.Layout.base + (slot * Registry.entry_bytes) in
        if Bytes.exists (fun c -> c <> '\000') (Bytes.sub image pos Registry.entry_bytes) then
          incr nonzero
      done;
      List.length parsed.Registry.entries + parsed.Registry.corrupt_slots = !nonzero)

(* ---------------- protection ---------------- *)

let test_protect_disabled_is_noop () =
  let engine = Engine.create () in
  let mmu = Mmu.create ~mem_pages:16 ~tlb_entries:4 () in
  let p = Protect.create ~mmu ~engine ~costs:Costs.default ~enabled:false in
  Protect.protect_page p ~paddr:8192;
  check Alcotest.bool "kseg still bypasses" false (Mmu.kseg_through_tlb mmu);
  check Alcotest.int "no toggles" 0 (Protect.toggles p);
  check Alcotest.bool "page still writable" true
    (Rio_vm.Page_table.is_writable (Mmu.page_table mmu) ~vpn:1)

let test_protect_enabled () =
  let engine = Engine.create () in
  let mmu = Mmu.create ~mem_pages:16 ~tlb_entries:4 () in
  let p = Protect.create ~mmu ~engine ~costs:Costs.default ~enabled:true in
  check Alcotest.bool "abox bit set" true (Mmu.kseg_through_tlb mmu);
  Protect.protect_page p ~paddr:8192;
  check Alcotest.bool "write-protected" false
    (Rio_vm.Page_table.is_writable (Mmu.page_table mmu) ~vpn:1);
  Protect.unprotect_page p ~paddr:8192;
  check Alcotest.bool "writable again" true
    (Rio_vm.Page_table.is_writable (Mmu.page_table mmu) ~vpn:1);
  check Alcotest.int "toggles counted" 2 (Protect.toggles p)

let test_code_patching_model () =
  check Alcotest.bool "overhead grows with stores" true
    (Protect.code_patching_overhead ~costs:Costs.default ~stores:1_000_000
    > Protect.code_patching_overhead ~costs:Costs.default ~stores:1_000)

(* ---------------- rio cache hooks ---------------- *)

let test_pages_registered_on_write () =
  let _, _, rio, fs = rio_system ~protection:false () in
  Fs.write_file fs "/f" (Pattern.fill ~seed:1 ~len:20_000);
  let stats = Rio_cache.stats rio in
  check Alcotest.bool "data + metadata registered" true (stats.Rio_cache.registered_pages > 3);
  check Alcotest.bool "checksums maintained" true (stats.Rio_cache.checksum_updates > 0)

let test_checksums_all_valid_after_writes () =
  let _, _, rio, fs = rio_system ~protection:false () in
  Fs.write_file fs "/a" (Pattern.fill ~seed:1 ~len:30_000);
  Fs.write_file fs "/b" (Pattern.fill ~seed:2 ~len:5_000);
  Fs.unlink fs "/a";
  check Alcotest.int "zero mismatches" 0 (Rio_cache.verify_all_checksums rio)

let test_checksum_detects_direct_corruption () =
  let _, kernel, rio, fs = rio_system ~protection:false () in
  Fs.write_file fs "/victim" (Pattern.fill ~seed:3 ~len:8192);
  (* Simulate a wild store into a registered data page. *)
  let corrupted = ref false in
  Registry.iter (Rio_cache.registry rio) (fun e ->
      if (not !corrupted) && e.Registry.kind = Registry.Data_buffer then begin
        Phys_mem.write_u8 (Kernel.mem kernel) (e.Registry.home_paddr + 17) 0xEE;
        corrupted := true
      end);
  check Alcotest.bool "a page was corrupted" true !corrupted;
  check Alcotest.bool "checksum catches it" true (Rio_cache.verify_all_checksums rio > 0)

let test_protection_blocks_interpreted_wild_store () =
  let _, kernel, rio, fs = rio_system ~protection:true () in
  Fs.write_file fs "/protected" (Pattern.fill ~seed:4 ~len:8192);
  (* Find the data page and attack it with an interpreted KSEG store. *)
  let target = ref 0 in
  Registry.iter (Rio_cache.registry rio) (fun e ->
      if !target = 0 && e.Registry.kind = Registry.Data_buffer then
        target := e.Registry.home_paddr);
  let m = Kernel.machine kernel in
  let mem = Kernel.mem kernel in
  let org = (Layout.region (Kernel.layout kernel) Layout.Kernel_text).Layout.base + 4096 in
  List.iteri
    (fun i instr -> Phys_mem.write_u32 mem (org + (4 * i)) (Isa.encode instr))
    [ Isa.Kseg (2, 1); Isa.St (3, 2, 0); Isa.Halt ];
  Machine.resume m;
  Machine.set_reg m 1 !target;
  Machine.set_reg m 3 0xBAD;
  Machine.set_pc m org;
  (match Machine.run m ~max_instructions:10 with
  | Machine.Trapped (Machine.Protection_violation _) -> ()
  | _ -> Alcotest.fail "expected protection violation");
  check Alcotest.int "page content untouched" 0 (Rio_cache.verify_all_checksums rio)

let test_no_protection_wild_store_succeeds () =
  let _, kernel, rio, fs = rio_system ~protection:false () in
  Fs.write_file fs "/unprotected" (Pattern.fill ~seed:4 ~len:8192);
  let target = ref 0 in
  Registry.iter (Rio_cache.registry rio) (fun e ->
      if !target = 0 && e.Registry.kind = Registry.Data_buffer then
        target := e.Registry.home_paddr);
  let m = Kernel.machine kernel in
  let mem = Kernel.mem kernel in
  let org = (Layout.region (Kernel.layout kernel) Layout.Kernel_text).Layout.base + 4096 in
  List.iteri
    (fun i instr -> Phys_mem.write_u32 mem (org + (4 * i)) (Isa.encode instr))
    [ Isa.Kseg (2, 1); Isa.St (3, 2, 0); Isa.Halt ];
  Machine.resume m;
  Machine.set_reg m 1 !target;
  Machine.set_reg m 3 0xBAD;
  Machine.set_pc m org;
  (match Machine.run m ~max_instructions:10 with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "expected the store to land silently");
  check Alcotest.bool "corruption happened and is detectable" true
    (Rio_cache.verify_all_checksums rio > 0)

let test_note_map_remap_refreshes_checksum () =
  let _, kernel, rio, fs = rio_system ~protection:false () in
  Fs.write_file fs "/a" (Pattern.fill ~seed:9 ~len:16_384);
  let entry = ref None in
  Registry.iter (Rio_cache.registry rio) (fun e ->
      if
        !entry = None
        && e.Registry.kind = Registry.Data_buffer
        && e.Registry.size = Phys_mem.page_size
      then entry := Some e);
  let e = match !entry with Some e -> e | None -> Alcotest.fail "no full data page" in
  check Alcotest.int "clean before the remap" 0 (Rio_cache.verify_all_checksums rio);
  (* The cache recycles the buffer for a different block: same page, same
     valid byte count, but new content under a new (ino, offset, blkno).
     The registry must re-checksum the fresh content — reusing the cached
     checksum (the size still matches and nothing is mid-write) would
     brand the recycled page a corruption. *)
  Phys_mem.fill (Kernel.mem kernel) e.Registry.home_paddr ~len:Phys_mem.page_size 'Q';
  (Kernel.hooks kernel).Rio_fs.Hooks.note_map ~paddr:e.Registry.home_paddr
    ~blkno:(e.Registry.blkno + 1000)
    ~owner:(Rio_fs.Fs_types.Data { ino = e.Registry.ino + 7; offset = e.Registry.offset + 8192 })
    ~valid:Phys_mem.page_size;
  check Alcotest.int "remap refreshed the checksum" 0 (Rio_cache.verify_all_checksums rio)

let test_shadow_update_counted () =
  let _, _, rio, fs = rio_system ~protection:true () in
  Fs.mkdir fs "/dir";
  Fs.write_file fs "/dir/f" (Bytes.of_string "x");
  check Alcotest.bool "shadow metadata updates happened" true
    ((Rio_cache.stats rio).Rio_cache.shadow_updates > 0)

(* ---------------- warm reboot ---------------- *)

let warm_reboot_cycle ~protection ~mutate_after_capture =
  let engine, kernel, _, fs = rio_system ~protection () in
  Fs.mkdir fs "/docs";
  let payload = Pattern.fill ~seed:11 ~len:40_000 in
  Fs.write_file fs "/docs/thesis" payload;
  Fs.write_file fs "/docs/note" (Bytes.of_string "short note");
  (* Crash out of nowhere. *)
  (match Kernel.fs kernel with Some f -> Fs.crash f | None -> ());
  mutate_after_capture kernel;
  let fs_ref = ref None in
  let report =
    Warm_reboot.perform ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
      ~layout:(Kernel.layout kernel) ~engine
      ~reboot:(fun () ->
        let kernel2 =
          Kernel.boot_warm ~engine ~costs:Costs.default (Kernel.config_with_seed 1)
            ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
        in
        ignore
          (Rio_cache.create ~mem:(Kernel.mem kernel2) ~layout:(Kernel.layout kernel2)
             ~mmu:(Kernel.mmu kernel2) ~engine ~costs:Costs.default
             ~hooks:(Kernel.hooks kernel2) ~pool_alloc:(Kernel.pool_alloc kernel2) ~protection
             ~dev:1 ());
        let fs2 = Kernel.mount kernel2 ~policy:Fs.Rio_policy in
        fs_ref := Some fs2;
        fs2)
  in
  (report, Option.get !fs_ref, payload)

let test_warm_reboot_recovers_everything () =
  let report, fs2, payload = warm_reboot_cycle ~protection:true ~mutate_after_capture:(fun _ -> ()) in
  check Alcotest.bool "metadata restored" true (report.Warm_reboot.meta_restored > 0);
  check Alcotest.bool "data restored" true (report.Warm_reboot.data_restored > 0);
  check Alcotest.int "no checksum mismatches" 0
    (report.Warm_reboot.meta_verify.Warm_reboot.mismatched
    + report.Warm_reboot.data_verify.Warm_reboot.mismatched);
  check Alcotest.bytes "big file back" payload (Fs.read_file fs2 "/docs/thesis");
  check Alcotest.bytes "small file back" (Bytes.of_string "short note")
    (Fs.read_file fs2 "/docs/note")

let test_warm_reboot_detects_corruption () =
  (* Corrupt a registered data page after the crash but before recovery:
     the verify pass must notice. *)
  let report, _, _ =
    warm_reboot_cycle ~protection:false ~mutate_after_capture:(fun kernel ->
        let layout = Kernel.layout kernel in
        let pool = Layout.region layout Layout.Page_pool in
        (* Flip bytes across the pool; some will hit registered pages. *)
        for i = 0 to 200 do
          Phys_mem.write_u8 (Kernel.mem kernel) (pool.Layout.base + (i * 4099)) 0x5A
        done)
  in
  check Alcotest.bool "checksums flag the damage" true
    (report.Warm_reboot.data_verify.Warm_reboot.mismatched > 0)

let test_warm_reboot_dump_written_to_swap () =
  let engine, kernel, _, fs = rio_system ~protection:false () in
  Fs.write_file fs "/x" (Bytes.of_string "dumped");
  (match Kernel.fs kernel with Some f -> Fs.crash f | None -> ());
  let image = Warm_reboot.capture (Kernel.mem kernel) in
  let t0 = Engine.now engine in
  let dumped, truncated = Warm_reboot.dump_to_swap ~disk:(Kernel.disk kernel) ~image in
  check Alcotest.bool "dump takes disk time" true (Engine.now engine > t0);
  check Alcotest.int "whole image dumped" (Bytes.length image) dumped;
  check Alcotest.int "nothing truncated" 0 truncated;
  (* Spot-check: the first swap sector holds the first bytes of memory. *)
  let sb = Rio_fs.Ondisk.read_superblock (Rio_disk.Disk.peek (Kernel.disk kernel) ~sector:0) in
  let sector = Rio_disk.Disk.peek (Kernel.disk kernel) ~sector:sb.Rio_fs.Ondisk.swap_start in
  check Alcotest.bytes "swap holds the image prefix" (Bytes.sub image 0 512) sector

let test_warm_reboot_dump_truncation_reported () =
  let _, kernel, _, fs = rio_system ~protection:false () in
  Fs.write_file fs "/x" (Bytes.of_string "dumped");
  (match Kernel.fs kernel with Some f -> Fs.crash f | None -> ());
  (* An image bigger than the swap partition: the dump must say exactly
     how much was written and how much fell off the end, not pretend the
     crash dump is whole. *)
  let sb = Rio_fs.Ondisk.read_superblock (Rio_disk.Disk.peek (Kernel.disk kernel) ~sector:0) in
  let swap_bytes = sb.Rio_fs.Ondisk.swap_sectors * Rio_disk.Disk.sector_bytes in
  let image = Bytes.make (swap_bytes + 4096) 'Z' in
  let dumped, truncated = Warm_reboot.dump_to_swap ~disk:(Kernel.disk kernel) ~image in
  check Alcotest.int "dump fills the swap" swap_bytes dumped;
  check Alcotest.int "overflow accounted" 4096 truncated

let () =
  Alcotest.run "rio_core"
    [
      ( "registry",
        [
          Alcotest.test_case "register/find" `Quick test_registry_register_find;
          Alcotest.test_case "update in place" `Quick test_registry_update_in_place;
          Alcotest.test_case "unregister" `Quick test_registry_unregister;
          Alcotest.test_case "changing + redirect" `Quick test_registry_changing_and_redirect;
          Alcotest.test_case "parse from image" `Quick test_registry_survives_in_memory;
          Alcotest.test_case "dev bounds enforced" `Quick test_registry_dev_bounds;
          Alcotest.test_case "plausible checks dev" `Quick test_registry_plausible_checks_dev;
          Alcotest.test_case "parse rejects garbage" `Quick test_registry_parse_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_registry_parse_never_crashes;
          QCheck_alcotest.to_alcotest prop_registry_parse_classifies_slots;
          Alcotest.test_case "slot order matches free-list model" `Quick
            test_registry_slot_order;
          Alcotest.test_case "full, then a released slot is reused" `Quick test_registry_full;
          Alcotest.test_case "checkpoint/restore keeps slot order" `Quick
            test_registry_checkpoint_slots;
        ] );
      ( "protect",
        [
          Alcotest.test_case "disabled no-op" `Quick test_protect_disabled_is_noop;
          Alcotest.test_case "enabled" `Quick test_protect_enabled;
          Alcotest.test_case "code patching model" `Quick test_code_patching_model;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "pages registered" `Quick test_pages_registered_on_write;
          Alcotest.test_case "checksums valid" `Quick test_checksums_all_valid_after_writes;
          Alcotest.test_case "checksum detects corruption" `Quick
            test_checksum_detects_direct_corruption;
          Alcotest.test_case "protection blocks wild store" `Quick
            test_protection_blocks_interpreted_wild_store;
          Alcotest.test_case "no protection lets it through" `Quick
            test_no_protection_wild_store_succeeds;
          Alcotest.test_case "shadow updates counted" `Quick test_shadow_update_counted;
          Alcotest.test_case "remap refreshes checksum" `Quick
            test_note_map_remap_refreshes_checksum;
        ] );
      ( "warm_reboot",
        [
          Alcotest.test_case "recovers everything" `Quick test_warm_reboot_recovers_everything;
          Alcotest.test_case "detects corruption" `Quick test_warm_reboot_detects_corruption;
          Alcotest.test_case "dump to swap" `Quick test_warm_reboot_dump_written_to_swap;
          Alcotest.test_case "dump truncation reported" `Quick
            test_warm_reboot_dump_truncation_reported;
        ] );
    ]
