(* Quickstart: build a Rio system, write a file, crash the OS without any
   sync, warm-reboot, and read the file back.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Rio_sim.Engine
module Fs = Rio_fs.Fs
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module World = Rio_world.World
module Units = Rio_util.Units

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  say "== Rio quickstart ==";
  (* A complete machine: simulated memory + MMU + CPU + disk, the kernel
     model, the Rio cache (registry + protection + checksums), and a file
     system mounted with the Rio policy (no reliability disk writes). *)
  let world = World.create ~seed:42 () in
  let fs = World.fs world in

  say "";
  say "1. Write files through the normal API. With the Rio policy there are";
  say "   no reliability-induced disk writes: every write is instantly as";
  say "   permanent as disk, at memory speed.";
  Fs.mkdir fs "/home";
  Fs.write_file fs "/home/paper.tex" (Bytes.of_string "\\title{The Rio File Cache}");
  let big = Rio_util.Pattern.fill ~seed:7 ~len:100_000 in
  Fs.write_file fs "/home/dataset.bin" big;
  let disk_writes = (Rio_disk.Disk.stats (World.disk world)).Rio_disk.Disk.writes in
  say "   -> wrote 2 files; disk writes so far: %d" disk_writes;

  let stats = Rio_cache.stats (World.rio world) in
  say "   -> registry tracks %d file-cache pages (40 bytes each, protected)"
    stats.Rio_cache.registered_pages;

  say "";
  say "2. Crash the operating system. No sync, no fsync, nothing: the sole";
  say "   copy of the data is in memory.";
  Fs.crash fs;
  say "   -> crashed at t=%s"
    (Format.asprintf "%a" Units.pp_usec (Engine.now (World.engine world)));

  say "";
  say "3. Warm reboot (the paper's 2-step §2.2): dump memory to swap, restore";
  say "   metadata to disk from the registry, fsck, remount, then replay the";
  say "   file data through normal write calls.";
  let report, fs2 = World.warm_reboot world in
  say "   -> %d registry entries recovered (%d corrupt slots)" report.Warm_reboot.registry_entries
    report.Warm_reboot.corrupt_registry_slots;
  say "   -> %d metadata buffers written to disk, %d data buffers replayed"
    report.Warm_reboot.meta_restored report.Warm_reboot.data_restored;
  say "   -> checksums: %d intact, %d mismatched, %d mid-write"
    (report.Warm_reboot.meta_verify.Warm_reboot.intact
    + report.Warm_reboot.data_verify.Warm_reboot.intact)
    (report.Warm_reboot.meta_verify.Warm_reboot.mismatched
    + report.Warm_reboot.data_verify.Warm_reboot.mismatched)
    (report.Warm_reboot.meta_verify.Warm_reboot.changing
    + report.Warm_reboot.data_verify.Warm_reboot.changing);
  say "   -> warm reboot took %s of simulated time"
    (Format.asprintf "%a" Units.pp_usec report.Warm_reboot.duration_us);

  say "";
  say "4. Verify every byte survived.";
  let tex = Fs.read_file fs2 "/home/paper.tex" in
  let bin = Fs.read_file fs2 "/home/dataset.bin" in
  say "   -> /home/paper.tex   : %s"
    (if Bytes.to_string tex = "\\title{The Rio File Cache}" then "intact" else "CORRUPT");
  say "   -> /home/dataset.bin : %s (%d bytes)"
    (if Bytes.equal bin big then "intact" else "CORRUPT")
    (Bytes.length bin);
  say "";
  say "Memory with write-back performance, disk-level reliability. That is Rio."
