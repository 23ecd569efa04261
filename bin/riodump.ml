(* riodump — post-mortem inspector for a crashed Rio system.

   Boots a Rio machine, runs a workload, injects faults of a chosen type,
   runs to the crash, then performs the forensics a kernel developer would
   do on the dump: which kernel-text words were mutated (disassembled),
   what the registry looked like in raw memory, and which buffers fail
   their checksums. *)

module Engine = Rio_sim.Engine
module Kernel = Rio_kernel.Kernel
module Kcrash = Rio_kernel.Kcrash
module World = Rio_world.World
module Layout = Rio_mem.Layout
module Phys_mem = Rio_mem.Phys_mem
module Disasm = Rio_cpu.Disasm
module Asm = Rio_kasm.Asm
module Kprogs = Rio_kasm.Kprogs
module Registry = Rio_core.Registry
module Warm_reboot = Rio_core.Warm_reboot
module Injector = Rio_fault.Injector
module Fault_type = Rio_fault.Fault_type
module Memtest = Rio_workload.Memtest
open Cmdliner

let say fmt = Printf.printf (fmt ^^ "\n%!")

let run fault_name seed protection =
  let fault =
    match Fault_type.of_name fault_name with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown fault type %S; one of:\n" fault_name;
      List.iter (fun f -> Printf.eprintf "  %s\n" (Fault_type.name f)) Fault_type.all;
      exit 2
  in
  let world = World.create ~protection ~seed () in
  let engine = World.engine world and kernel = World.kernel world and fs = World.fs world in
  let layout = Kernel.layout kernel in
  let text = Layout.region layout Layout.Kernel_text in
  let program = (Kernel.kprogs kernel).Kprogs.program in
  let text_words = Asm.instruction_count program in
  let pristine = Phys_mem.blit_out (Kernel.mem kernel) text.Layout.base ~len:(text_words * 4) in

  (* Workload, injection, crash. *)
  let mt = Memtest.create { Memtest.default_config with Memtest.seed } in
  let crash = ref None in
  (try
     for _ = 1 to 40 do
       Memtest.step mt ~fs ();
       Kernel.run_activity kernel
     done;
     Injector.inject_many kernel
       ~prng:(Rio_util.Prng.create ~seed:(seed lxor 0xFA17))
       fault ~count:20;
     for _ = 1 to 400 do
       Memtest.step mt ~fs ();
       Kernel.run_activity kernel;
       Kernel.run_activity kernel
     done
   with
  | Kcrash.Crashed info -> crash := Some info
  | Rio_fs.Fs_types.Fs_error msg ->
    crash :=
      Some { Kcrash.cause = Kcrash.Panic msg; during = "file system"; at_us = Engine.now engine });

  say "=== riodump: post-mortem of a %s run (seed %d, protection %s) ===" fault_name seed
    (if protection then "on" else "off");
  say "";
  (match !crash with
  | Some info ->
    Kernel.crash_system kernel info;
    say "console: %s" (Kcrash.message_of info);
    say "crashed at %s during %s" (Format.asprintf "%a" Rio_util.Units.pp_usec info.Kcrash.at_us)
      info.Kcrash.during
  | None -> say "system survived the watchdog window (run discarded); dumping anyway");
  say "";

  say "--- memory layout ---";
  Format.printf "%a@." Layout.pp layout;

  say "--- injected kernel-text mutations (pristine vs dump) ---";
  let mutations =
    Disasm.diff ~before:pristine ~after:(Kernel.mem kernel) ~base:text.Layout.base
      ~words:text_words
  in
  if mutations = [] then say "(none — the faults were not text mutations)"
  else begin
    List.iter (fun l -> Format.printf "  %a@." Disasm.pp_line l) mutations;
    say "  (%d word(s) mutated)" (List.length mutations)
  end;
  say "";

  say "--- registry, parsed from the raw memory image ---";
  let image = Warm_reboot.capture (Kernel.mem kernel) in
  let parsed = Warm_reboot.parse_registry ~image ~layout in
  let metas, datas =
    List.partition (fun e -> e.Registry.kind = Registry.Meta_buffer) parsed.Registry.entries
  in
  say "%d entries (%d metadata, %d data), %d corrupt slots"
    (List.length parsed.Registry.entries)
    (List.length metas) (List.length datas) parsed.Registry.corrupt_slots;
  List.iteri
    (fun i e ->
      if i < 12 then
        say "  page %#x  %s  ino=%d off=%d size=%d blkno=%d%s" e.Registry.home_paddr
          (match e.Registry.kind with Registry.Meta_buffer -> "meta" | Registry.Data_buffer -> "data")
          e.Registry.ino e.Registry.offset e.Registry.size e.Registry.blkno
          (if e.Registry.changing then " CHANGING" else ""))
    parsed.Registry.entries;
  if List.length parsed.Registry.entries > 12 then
    say "  ... (%d more)" (List.length parsed.Registry.entries - 12);
  say "";

  say "--- checksum verification of the dumped buffers ---";
  let v_meta = Warm_reboot.verify_entries ~image metas in
  let v_data = Warm_reboot.verify_entries ~image datas in
  say "metadata: %d intact, %d MISMATCHED, %d mid-write" v_meta.Warm_reboot.intact
    v_meta.Warm_reboot.mismatched v_meta.Warm_reboot.changing;
  say "data:     %d intact, %d MISMATCHED, %d mid-write" v_data.Warm_reboot.intact
    v_data.Warm_reboot.mismatched v_data.Warm_reboot.changing;
  say "";
  say "(a mismatch here is direct corruption the warm reboot would carry over;"
  ;
  say " memTest's reconstruction is the final arbiter — see riobench table1)"

let fault_arg =
  Arg.(
    value
    & opt string "copy overrun"
    & info [ "fault" ] ~docv:"FAULT" ~doc:"Fault type to inject (a Table 1 row label).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let protection_arg =
  Arg.(value & flag & info [ "protection" ] ~doc:"Enable Rio's protection (default off).")

let cmd =
  let doc = "Inspect a crashed Rio system: text mutations, registry, checksums." in
  Cmd.v (Cmd.info "riodump" ~version:"1.0" ~doc)
    Term.(const run $ fault_arg $ seed_arg $ protection_arg)

let () = exit (Cmd.eval cmd)
