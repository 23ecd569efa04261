(* World templates: a restored world must be indistinguishable from a
   freshly built one. The mechanics tests exercise freeze/restore
   directly; the equivalence tests drive the real campaign engines down
   both paths — template-restored attempts (the default) and from-scratch
   builds (the --reference mode) — and demand identical attempt records
   and explorer reports, crashes and warm and cold reboots included. The
   recovery tests hold the world's two reboot sequences to the
   hand-assembled ones they replaced. The policy test pins what each of
   Table 2's file systems sends to disk, call by call. *)

module World = Rio_world.World
module Fs = Rio_fs.Fs
module Engine = Rio_sim.Engine
module Pattern = Rio_util.Pattern
module Prng = Rio_util.Prng
module Gen = Rio_workload.Script.Gen
module Fuzzer = Rio_fuzz.Fuzzer
module Program = Rio_fuzz.Program
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run
module Kernel = Rio_kernel.Kernel
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Fsck = Rio_fs.Fsck
module Disk = Rio_disk.Disk

let check = Alcotest.check

(* Templates follow the fast-path knob, which defaults to on; off is
   exactly what [--reference] runs. Every test leaves the knob the way it
   found it, even on failure. *)
let with_templates b f =
  Rio_util.Fastpath.set b;
  Fun.protect ~finally:(fun () -> Rio_util.Fastpath.set true) f

(* ---------------- freeze/restore mechanics ---------------- *)

let test_freeze_restore_mechanics () =
  let w = World.create ~seed:42 () in
  let fs = World.fs w in
  Fs.write_file fs "/keep" (Pattern.fill ~seed:1 ~len:9000);
  World.freeze w;
  let t0 = Engine.now (World.engine w) in
  let keep = Fs.read_file fs "/keep" in
  for round = 1 to 3 do
    (* Dirty the file system, the clock, and the namespace... *)
    Fs.write_file fs "/keep" (Pattern.fill ~seed:(100 + round) ~len:4000);
    Fs.mkdir fs "/junk";
    Fs.write_file fs "/junk/f" (Pattern.fill ~seed:round ~len:2000);
    (* ...and rewind. *)
    let pages = World.restore w in
    check Alcotest.bool (Printf.sprintf "round %d blitted dirty pages" round) true
      (pages > 0);
    check Alcotest.int "clock rewound" t0 (Engine.now (World.engine w));
    check Alcotest.bool "file content rewound" true
      (Bytes.equal keep (Fs.read_file fs "/keep"));
    check Alcotest.bool "created subtree gone" true
      (match Fs.read_file fs "/junk/f" with
      | _ -> false
      | exception Rio_fs.Fs_types.Fs_error _ -> true)
  done;
  check Alcotest.int "restore counter" 3 (World.restores w);
  check Alcotest.bool "pages accounted" true (World.pages_restored w > 0);
  World.dispose w

let test_on_restore_hooks () =
  let w = World.create ~seed:7 () in
  let log = ref [] in
  World.on_restore w (fun () -> log := "a" :: !log);
  World.on_restore w (fun () -> log := "b" :: !log);
  World.freeze w;
  ignore (World.restore w : int);
  ignore (World.restore w : int);
  check
    (Alcotest.list Alcotest.string)
    "hooks run in registration order, every restore" [ "a"; "b"; "a"; "b" ]
    (List.rev !log);
  World.dispose w

let test_freeze_restore_guards () =
  let w = World.create ~seed:9 () in
  check Alcotest.bool "restore before freeze raises" true
    (match World.restore w with
    | _ -> false
    | exception Invalid_argument _ -> true);
  World.freeze w;
  check Alcotest.bool "double freeze raises" true
    (match World.freeze w with
    | () -> false
    | exception Invalid_argument _ -> true);
  World.dispose w

(* ---------------- fuzz attempts: template = fresh ---------------- *)

(* As the fuzzer generates them: with [Sync] under idle write-back, the
   barrier the cold-recovery audit holds data to. *)
let gen_ops ~(spec : Explorer.spec) ~seed ~nops =
  let prng = Prng.create ~seed in
  let gspec =
    if (Fs.rules spec.Explorer.policy).Fs.daemon then { Program.gen_spec with Gen.sync = true }
    else Program.gen_spec
  in
  Gen.generate ~prng gspec ~ops:nops

(* A counting pass plus crashes at the first, middle, and last boundary
   of the schedule — each crash attempt runs the full trip + reboot +
   audit pipeline. *)
let pick_trips boundaries =
  if boundaries = 0 then []
  else List.sort_uniq compare [ 0; boundaries / 2; boundaries - 1 ]

let check_attempt what (a : Fuzzer.attempt) (b : Fuzzer.attempt) =
  if a <> b then
    Alcotest.failf
      "%s: attempt records differ (boundaries %d vs %d, %d vs %d problems, tripped %s vs %s)"
      what a.Fuzzer.boundaries b.Fuzzer.boundaries
      (List.length a.Fuzzer.problems)
      (List.length b.Fuzzer.problems)
      (Option.value ~default:"-" a.Fuzzer.tripped)
      (Option.value ~default:"-" b.Fuzzer.tripped)

let test_fuzz_attempts_match_fresh () =
  List.iter
    (fun (world_seed, prog_seed) ->
      List.iter
        (fun (spec : Explorer.spec) ->
          let ops = gen_ops ~spec ~seed:prog_seed ~nops:6 in
          let attempt trip = Fuzzer.run_attempt ~spec ~seed:world_seed ~ops ~trip () in
          (* Reference records from scratch-built worlds. *)
          let fresh_count, fresh_trips =
            with_templates false @@ fun () ->
            let c = attempt (-1) in
            (c, List.map (fun t -> (t, attempt t)) (pick_trips c.Fuzzer.boundaries))
          in
          (* Template path, two rounds: round 1 builds and freezes the
             template (first use of this (spec, seed)), round 2 runs
             entirely on restores of it. Both must reproduce the fresh
             records exactly. *)
          with_templates true @@ fun () ->
          for round = 1 to 2 do
            let tag trip =
              Printf.sprintf "%s seed %d/%d trip %d round %d" spec.Explorer.label
                world_seed prog_seed trip round
            in
            check_attempt (tag (-1)) fresh_count (attempt (-1));
            List.iter (fun (t, fresh) -> check_attempt (tag t) fresh (attempt t)) fresh_trips
          done)
        [ Explorer.rio_prot; Explorer.rio_noprot; Explorer.wb_cold ])
    [ (3, 103); (11, 211) ]

(* The multi-task attempt: three tasks under one seeded interleaving, the
   same counting pass and first/middle/last crashes. *)
let test_tasks_attempts_match_fresh () =
  let progs =
    Array.of_list
      (Gen.generate_tasks ~prng:(Prng.create ~seed:307) ~spec_of:Program.task_gen_spec
         ~ops_per_task:4 3)
  in
  let attempt trip =
    Fuzzer.run_attempt_tasks ~spec:Explorer.rio_prot ~locking:true ~seed:7 ~sched_seed:4242
      ~progs ~trip ()
  in
  let fresh_count, fresh_trips =
    with_templates false @@ fun () ->
    let c = attempt (-1) in
    (c, List.map (fun t -> (t, attempt t)) (pick_trips c.Fuzzer.t_boundaries))
  in
  check Alcotest.int "three crash points" 3 (List.length fresh_trips);
  check Alcotest.bool "a trip crashes inside an op (the audit runs)" true
    (List.exists (fun (_, a) -> a.Fuzzer.t_crasher <> None) fresh_trips);
  with_templates true @@ fun () ->
  for round = 1 to 2 do
    List.iter
      (fun (t, fresh) ->
        let a = attempt t in
        if a <> fresh then
          Alcotest.failf
            "trip %d round %d: multi-task attempt records differ (boundaries %d vs %d, %d vs %d \
             problems)"
            t round fresh.Fuzzer.t_boundaries a.Fuzzer.t_boundaries
            (List.length fresh.Fuzzer.t_problems)
            (List.length a.Fuzzer.t_problems))
      ((-1, fresh_count) :: fresh_trips)
  done

(* ---------------- explorer reports: template = fresh ---------------- *)

let test_explorer_report_matches_fresh () =
  let cfg = { Run.default with Run.seed = 5; domains = 1 } in
  let go () =
    Fuzzer.explore ~spec:Explorer.rio_prot
      ~scenarios:(List.map Fuzzer.scenario [ "creat"; "rename"; "two-task" ])
      ~interleave:1 cfg
  in
  let fresh = with_templates false go in
  let tpl1 = with_templates true go in
  let tpl2 = with_templates true go in
  check Alcotest.bool "template report = fresh report" true (tpl1 = fresh);
  check Alcotest.bool "second template report identical (pure restores)" true (tpl2 = fresh);
  check Alcotest.string "rendered text identical" (Explorer.render fresh)
    (Explorer.render tpl1)

(* ---------------- recovery: World = the hand-assembled sequence ---------------- *)

(* Twin worlds, identical up to the crash: one recovers through
   [World.warm_reboot]/[cold_reboot], the other through the sequence every
   harness used to assemble by hand, kept here as the model. *)

type twin = {
  rio : bool;
  protection : bool;
  shadow : bool;
  registry : bool;
  policy : Fs.policy;
  wb_unordered : bool;
}

let rio_twin =
  {
    rio = true;
    protection = true;
    shadow = true;
    registry = true;
    policy = Fs.Rio_policy;
    wb_unordered = false;
  }

let twin_name c =
  Printf.sprintf "%s%s%s%s/%s%s"
    (if c.rio then "rio" else "disk")
    (if c.protection then "" else " noprot")
    (if c.shadow then "" else " noshadow")
    (if c.registry then "" else " noregistry")
    (Fs.policy_name c.policy)
    (if c.wb_unordered then " unordered" else "")

let paths = [ "/a"; "/d/b"; "/d/c" ]

(* Some state made durable by a sync, some only in memory, then the
   crash. *)
let crashed_twin c =
  let w =
    World.create ~rio:c.rio ~protection:c.protection ~shadow:c.shadow ~registry:c.registry
      ~policy:c.policy ~wb_unordered:c.wb_unordered ~seed:13 ()
  in
  let fs = World.fs w in
  Fs.mkdir fs "/d";
  List.iteri (fun i p -> Fs.write_file fs p (Pattern.fill ~seed:(50 + i) ~len:(5000 + (3000 * i)))) paths;
  Fs.sync fs;
  Fs.write_file fs "/d/b" (Pattern.fill ~seed:60 ~len:9000);
  Fs.write_file fs "/e" (Pattern.fill ~seed:61 ~len:20000);
  Fs.crash fs;
  w

let model_remount c w k =
  if c.rio then
    ignore
      (Rio_cache.create ~shadow:c.shadow ~registry:c.registry ~mem:(Kernel.mem k)
         ~layout:(Kernel.layout k) ~mmu:(Kernel.mmu k) ~engine:(World.engine w)
         ~costs:(World.costs w) ~hooks:(Kernel.hooks k) ~pool_alloc:(Kernel.pool_alloc k)
         ~protection:c.protection ~dev:1 ()
        : Rio_cache.t);
  Kernel.mount k ~policy:c.policy

let model_warm_reboot c w =
  let recovered = ref None in
  let report =
    Warm_reboot.perform ~mem:(World.mem w) ~disk:(World.disk w) ~layout:(World.layout w)
      ~engine:(World.engine w)
      ~reboot:(fun () ->
        let k =
          Kernel.boot_warm ~engine:(World.engine w) ~costs:(World.costs w) (World.config w)
            ~mem:(World.mem w) ~disk:(World.disk w)
        in
        let fs = model_remount c w k in
        recovered := Some fs;
        fs)
  in
  (report, Option.get !recovered)

let model_cold_reboot c w =
  model_remount c w
    (Kernel.boot_on_disk ~engine:(World.engine w) ~costs:(World.costs w) (World.config w)
       ~disk:(World.disk w))

(* What the recovered stack looks like: after one more write and a sync
   on the recovered mount (so its Rio hooks and write ordering show up in
   the clock and the disk), the clock, the disk counters, statfs, and
   every file's contents. *)
let observe w fs =
  Fs.write_file fs "/after" (Pattern.fill ~seed:99 ~len:30000);
  Fs.sync fs;
  let read p = match Fs.read_file fs p with b -> Some b | exception Rio_fs.Fs_types.Fs_error _ -> None in
  ( Engine.now (World.engine w),
    Disk.stats (World.disk w),
    Fs.statfs fs,
    List.map read ("/after" :: "/e" :: paths) )

let check_same what (clock, disk, statfs, files) (clock', disk', statfs', files') =
  check Alcotest.int (what ^ ": engine clock") clock clock';
  check Alcotest.bool (what ^ ": disk stats") true (disk = disk');
  check Alcotest.bool (what ^ ": statfs") true (statfs = statfs');
  List.iteri
    (fun i (a, b) ->
      check Alcotest.bool (Printf.sprintf "%s: file %d contents" what i) true (a = b))
    (List.combine files files')

let test_warm_reboot_matches_model () =
  List.iter
    (fun c ->
      let what = "warm " ^ twin_name c in
      let w = crashed_twin c and m = crashed_twin c in
      let report, fs = World.warm_reboot w in
      let mreport, mfs = model_warm_reboot c m in
      check Alcotest.bool (what ^ ": warm-reboot report") true (report = mreport);
      check_same what (observe m mfs) (observe w fs);
      World.dispose w;
      World.dispose m)
    [
      rio_twin;
      { rio_twin with protection = false };
      { rio_twin with shadow = false; registry = false };
      { rio_twin with policy = Fs.Rio_idle; wb_unordered = true };
    ]

let test_cold_reboot_matches_model () =
  List.iter
    (fun c ->
      let what = "cold " ^ twin_name c in
      let w = crashed_twin c and m = crashed_twin c in
      (* The fsck verdict is the caller's: both twins run it. *)
      let verdict = Fsck.run ~disk:(World.disk w) in
      check Alcotest.bool (what ^ ": fsck report") true (verdict = Fsck.run ~disk:(World.disk m));
      let fs = World.cold_reboot w in
      let mfs = model_cold_reboot c m in
      check_same what (observe m mfs) (observe w fs);
      World.dispose w;
      World.dispose m)
    [
      { rio_twin with rio = false; policy = Fs.Ufs_default };
      { rio_twin with rio = false; policy = Fs.Ufs_delayed };
      { rio_twin with policy = Fs.Rio_idle };
      { rio_twin with policy = Fs.Rio_idle; wb_unordered = true; protection = false };
    ]

(* ---------------- per-policy disk traffic ---------------- *)

(* What each of Table 2's file systems sends to disk, one call at a time.
   Every call runs on a fresh world whose /f holds 3,000 dirty bytes
   behind an open fd, with the disk drained. A call reads '-' when it
   issues no disk write, 'Q' when a write it issued is still queued as it
   returns, and 'D' when every one is on the platter. The kernel then
   crashes, and its panic flush reports the data and metadata blocks it
   pushed out. *)
let policy_calls : (string * (Fs.t -> Fs.fd -> unit)) list =
  [
    ("create", fun fs _ -> ignore (Fs.create fs "/g" : Fs.fd));
    ("append", fun fs fd -> Fs.write fs fd (Bytes.make 100 'a'));
    ("pwrite", fun fs fd -> Fs.pwrite fs fd ~offset:0 (Bytes.make 100 'p'));
    ("close", fun fs fd -> Fs.close fs fd);
    ("fsync", fun fs fd -> Fs.fsync fs fd);
    ("truncate", fun fs _ -> Fs.truncate fs "/f" 1000);
    ("sync", fun fs _ -> Fs.sync fs);
    ("daemon", fun fs _ -> ignore (Fs.update_daemon_flush fs : int));
  ]

let policy_traffic policy =
  let one (_, call) =
    let w = World.create ~rio:false ~policy ~seed:5 () in
    let fs = World.fs w and disk = World.disk w and k = World.kernel w in
    let fd = Fs.create fs "/f" in
    Fs.write fs fd (Pattern.fill ~seed:3 ~len:3000);
    Disk.drain disk;
    let before = (Disk.stats disk).Disk.writes in
    call fs fd;
    let issued = (Disk.stats disk).Disk.writes - before in
    let cls = if issued = 0 then '-' else if Disk.pending_writes disk > 0 then 'Q' else 'D' in
    Kernel.crash_system k
      { Rio_kernel.Kcrash.cause = Rio_kernel.Kcrash.Hang; during = "test";
        at_us = Engine.now (World.engine w) };
    let flushed = Kernel.crash_flushed k in
    World.dispose w;
    (cls, issued, flushed)
  in
  let runs = List.map one policy_calls in
  ( String.of_seq (List.to_seq (List.map (fun (c, _, _) -> c) runs)),
    List.map (fun (_, n, _) -> n) runs,
    List.map (fun (_, _, f) -> f) runs )

(* Per policy, per call in [policy_calls] order: the class, the disk
   writes issued, and the panic flush's data+meta blocks. *)
let expected_traffic =
  [
    ("memory-fs", "--------", [ 0; 0; 0; 0; 0; 0; 0; 0 ], "0+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0");
    ("ufs-delayed", "----D-DQ", [ 0; 0; 0; 0; 2; 0; 3; 3 ], "1+2 1+2 1+2 1+2 0+1 1+2 0+0 0+0");
    ("advfs", "--QQD-DQ", [ 0; 0; 1; 1; 2; 0; 3; 5 ], "1+2 1+2 0+2 0+2 0+1 1+2 0+0 0+0");
    ("ufs", "D-QQD-DQ", [ 2; 0; 1; 1; 2; 0; 2; 2 ], "1+0 1+1 0+1 0+1 0+0 1+1 0+0 0+0");
    ("wt-close", "D-QDDDDQ", [ 2; 0; 1; 2; 2; 2; 2; 2 ], "1+0 1+1 0+1 0+0 0+0 0+0 0+0 0+0");
    ("wt-write", "DDD--D--", [ 2; 2; 2; 0; 0; 2; 0; 0 ], "0+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0");
    ("rio", "--------", [ 0; 0; 0; 0; 0; 0; 0; 0 ], "0+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0");
    ("rio-idle", "------DQ", [ 0; 0; 0; 0; 0; 0; 3; 3 ], "0+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0");
  ]

let test_policy_traffic () =
  check (Alcotest.list Alcotest.string) "every policy pinned"
    (List.map Fs.policy_name Fs.all_policies)
    (List.map (fun (name, _, _, _) -> name) expected_traffic);
  List.iter2
    (fun p (name, classes, issued, flushed) ->
      let classes', issued', flushed' = policy_traffic p in
      check Alcotest.string (name ^ ": classes") classes classes';
      check (Alcotest.list Alcotest.int) (name ^ ": writes issued") issued issued';
      check Alcotest.string (name ^ ": panic flush") flushed
        (String.concat " " (List.map (fun (d, m) -> Printf.sprintf "%d+%d" d m) flushed')))
    Fs.all_policies expected_traffic

let () =
  Alcotest.run "world"
    [
      ( "mechanics",
        [
          Alcotest.test_case "freeze/restore rewinds fs, clock, namespace" `Quick
            test_freeze_restore_mechanics;
          Alcotest.test_case "on_restore hooks" `Quick test_on_restore_hooks;
          Alcotest.test_case "freeze/restore guards" `Quick test_freeze_restore_guards;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fuzz attempts: template = fresh (incl. crashes)" `Slow
            test_fuzz_attempts_match_fresh;
          Alcotest.test_case "multi-task attempts: template = fresh (incl. crashes)" `Slow
            test_tasks_attempts_match_fresh;
          Alcotest.test_case "explorer report: template = fresh" `Slow
            test_explorer_report_matches_fresh;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "warm reboot = hand-assembled sequence" `Quick
            test_warm_reboot_matches_model;
          Alcotest.test_case "cold reboot = hand-assembled sequence" `Quick
            test_cold_reboot_matches_model;
        ] );
      ( "policies",
        [ Alcotest.test_case "disk traffic per call and policy" `Quick test_policy_traffic ] );
    ]
