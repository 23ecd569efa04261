(* Tests for Rio_task and the interleaving campaigns built on it. The key
   properties are (a) the scheduler is a pure function of its seed — same
   seed, same interleaving, byte-identical multi-task reports at any
   domain count, (b) the ownership lock actually serializes critical
   sections (and its absence visibly does not), (c) tasks isolate cwd and
   descriptor tables, and (d) the interleaving fuzzer catches the planted
   lock-off lost-update ablation AND shrinks it to a tiny repro, while
   rio-prot with locking fuzzes clean. *)

module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout
module Page_alloc = Rio_mem.Page_alloc
module Disk = Rio_disk.Disk
module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Hooks = Rio_fs.Hooks
module Block_cache = Rio_fs.Block_cache
module Syscall = Rio_fs.Fs.Syscall
module Task = Rio_task.Task
module Sched = Rio_task.Sched
module Fuzzer = Rio_fuzz.Fuzzer
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run

let check = Alcotest.check

(* A small mounted file system (same fixture shape as test_fs). *)
let make_fs () =
  let engine = Engine.create () in
  let layout = Layout.create Layout.default_config in
  let mem = Phys_mem.create ~bytes_total:Layout.default_config.Layout.total_bytes in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:(64 * 1024) ~seed:3 () in
  let geom = Fs.default_geometry ~disk_sectors:(64 * 1024) ~mem_bytes:(Phys_mem.size mem) in
  Fs.mkfs ~disk geom;
  Fs.mount ~engine ~costs:Costs.default ~mem ~wb_unordered:false
    ~meta_alloc:(Page_alloc.create ~region:(Layout.region layout Layout.Buffer_cache))
    ~pool_alloc:(Page_alloc.create ~region:(Layout.region layout Layout.Page_pool))
    ~disk ~policy:Fs.Ufs_default ~hooks:(Hooks.defaults ~mem)

(* ---------------- the scheduler ---------------- *)

let trace_for ~seed =
  let sched = Sched.create ~seed in
  for i = 0 to 2 do
    Sched.spawn sched
      (Task.make ~id:i ~name:(Printf.sprintf "t%d" i))
      (fun _ ->
        for _ = 1 to 5 do
          Sched.preempt sched
        done)
  done;
  Sched.run sched;
  (Sched.trace sched, Sched.switches sched)

let test_sched_deterministic () =
  let t1, s1 = trace_for ~seed:42 in
  let t2, s2 = trace_for ~seed:42 in
  check (Alcotest.list Alcotest.string) "same seed, same interleaving" t1 t2;
  check Alcotest.int "same switch count" s1 s2;
  check Alcotest.bool "switches happened" true (s1 > 3);
  let t3, _ = trace_for ~seed:43 in
  check Alcotest.bool "different seed, different interleaving" true (t1 <> t3)

let test_lock_serializes_rmw () =
  (* Three tasks doing read-yield-write increments: the lock must make
     the interleaved sum exact, and dropping it must visibly lose
     updates (this is the ablation the fuzzer hunts, in miniature). *)
  let rmw ~locked ~seed =
    let sched = Sched.create ~seed in
    let cell = ref 0 in
    for i = 0 to 2 do
      Sched.spawn sched
        (Task.make ~id:i ~name:(Printf.sprintf "t%d" i))
        (fun _ ->
          for _ = 1 to 8 do
            let step () =
              let v = !cell in
              Sched.preempt sched;
              cell := v + 1
            in
            if locked then Sched.with_lock sched ~key:Sched.fs_lock step else step ()
          done)
    done;
    Sched.run sched;
    !cell
  in
  check Alcotest.int "locked RMW is exact" 24 (rmw ~locked:true ~seed:5);
  check Alcotest.bool "unlocked RMW loses updates" true (rmw ~locked:false ~seed:5 < 24)

let test_lock_holder_visible () =
  let sched = Sched.create ~seed:1 in
  let saw = ref None in
  Sched.spawn sched (Task.make ~id:0 ~name:"t0") (fun _ ->
      Sched.with_lock sched ~key:Sched.fs_lock (fun () ->
          saw := Sched.holder sched ~key:Sched.fs_lock));
  Sched.run sched;
  match !saw with
  | Some t -> check Alcotest.string "holder is the caller" "t0" (Task.name t)
  | None -> Alcotest.fail "holder not visible inside the critical section"

(* ---------------- per-task cwd and descriptors ---------------- *)

let test_task_cwd_and_fd_isolation () =
  let fs = make_fs () in
  ignore (Syscall.run fs (Syscall.Mkdir "/a"));
  ignore (Syscall.run fs (Syscall.Mkdir "/b"));
  let ta = Task.make ~id:0 ~name:"ta" and tb = Task.make ~id:1 ~name:"tb" in
  Task.chdir ta "/a";
  Task.chdir tb "/b";
  check Alcotest.string "relative paths resolve through cwd" "/a/f" (Task.resolve ta "f");
  check Alcotest.string "absolute paths pass through" "/x" (Task.resolve tb "/x");
  let sched = Sched.create ~seed:2 in
  let local = Array.make 2 (-1) in
  let body text task =
    let fd =
      Syscall.fd_exn (Sched.syscall sched ~locking:true task fs (Syscall.Creat "f"))
    in
    let d = Task.install_fd task fd in
    local.(Task.id task) <- d;
    ignore
      (Sched.syscall sched ~locking:true task fs
         (Syscall.Pwrite
            { fd = Task.global_fd task d; offset = 0; data = Bytes.of_string text }));
    ignore (Sched.syscall sched ~locking:true task fs (Syscall.Close (Task.global_fd task d)));
    Task.release_fd task d
  in
  Sched.spawn sched ta (body "alpha");
  Sched.spawn sched tb (body "bravo");
  Sched.run sched;
  check Alcotest.int "both tasks hold the same local descriptor number" local.(0) local.(1);
  check Alcotest.string "ta wrote its own subtree" "alpha"
    (Bytes.to_string (Fs.read_file fs "/a/f"));
  check Alcotest.string "tb wrote its own subtree" "bravo"
    (Bytes.to_string (Fs.read_file fs "/b/f"));
  check (Alcotest.list Alcotest.int) "descriptor tables drained" [] (Task.open_fds ta)

(* ---------------- syscall entry vs the per-op functions ---------------- *)

let test_syscall_entry_matches_wrappers () =
  (* The decoded Fs.Syscall entry must be observationally identical to
     the per-op functions it dispatches to. *)
  let fs = make_fs () in
  let fd = Syscall.fd_exn (Syscall.run fs (Syscall.Creat "/a")) in
  ignore (Syscall.run fs (Syscall.Pwrite { fd; offset = 0; data = Bytes.of_string "hello" }));
  ignore (Syscall.run fs (Syscall.Close fd));
  check Alcotest.string "wrapper read sees syscall write" "hello"
    (Bytes.to_string (Fs.read_file fs "/a"));
  Fs.write_file fs "/b" (Bytes.of_string "world");
  check Alcotest.string "syscall read sees wrapper write" "world"
    (Bytes.to_string (Syscall.data_exn (Syscall.run fs (Syscall.Read_file "/b"))));
  ignore (Syscall.run fs (Syscall.Mkdir "/d"));
  ignore (Syscall.run fs (Syscall.Rename { src = "/b"; dst = "/d/b" }));
  check Alcotest.bool "rename via syscall visible" true
    (Syscall.bool_exn (Syscall.run fs (Syscall.Exists "/d/b")));
  check Alcotest.int "stat agrees with the wrapper"
    (Fs.stat fs "/a").Fs.st_size
    (Syscall.stat_exn (Syscall.run fs (Syscall.Stat "/a"))).Fs.st_size;
  check Alcotest.bool "mutates classifies reads as shared-safe" false
    (Syscall.mutates (Syscall.Read_file "/a"));
  check Alcotest.bool "mutates classifies writes as exclusive" true
    (Syscall.mutates (Syscall.Unlink "/a"))

(* ---------------- block cache flush early-out ---------------- *)

let flush_fixture () =
  let engine = Engine.create () in
  let layout = Layout.create Layout.default_config in
  let mem = Phys_mem.create ~bytes_total:Layout.default_config.Layout.total_bytes in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:(64 * 1024) ~seed:3 () in
  let alloc = Page_alloc.create ~region:(Layout.region layout Layout.Page_pool) in
  let cache =
    Block_cache.create ~name:"flush-test" ~mem ~disk ~alloc ~hooks:(Hooks.defaults ~mem)
      ~sector_of_blkno:(fun b -> 2048 + (b * Fs_types.sectors_per_block))
      ~backed:true
  in
  (engine, disk, alloc, cache)

let block_of_sector sector = (sector - 2048) / Fs_types.sectors_per_block

let test_flush_dirty_early_out () =
  let _, _, _, cache = flush_fixture () in
  (* Populate with clean entries: the early-out must not depend on the
     table being empty, only on nothing being dirty. *)
  for b = 0 to 7 do
    ignore (Block_cache.get cache ~blkno:b ~owner:Fs_types.Meta ~fill:Block_cache.Zero)
  done;
  check Alcotest.int "clean cache" 0 (Block_cache.dirty_count cache);
  let before = Block_cache.stats cache in
  check Alcotest.int "flush of a clean cache flushes nothing" 0
    (Block_cache.flush_dirty cache ~sync:true ());
  let after = Block_cache.stats cache in
  check Alcotest.int "early-out does no write-backs" before.Block_cache.writebacks
    after.Block_cache.writebacks;
  for b = 2 to 4 do
    let e = Block_cache.get cache ~blkno:b ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
    Block_cache.mark_dirty cache e
  done;
  check Alcotest.int "dirty blocks counted" 3 (Block_cache.dirty_count cache);
  check Alcotest.int "dirty blocks flushed" 3 (Block_cache.flush_dirty cache ~sync:true ());
  check Alcotest.int "count retired exactly" 0 (Block_cache.dirty_count cache)

(* A synchronous flush waits on the disk, and due engine events run during
   the wait. Here one of them is a second flush of the same cache (as the
   update daemon's pass can be under write-through-on-close): it cleans
   blocks the outer flush selected but has not reached yet, and blocks
   outside the outer filter. It only queues its writes, so the outer flush
   must still wait for the selected blocks before it returns. *)
let test_flush_dirty_nested () =
  let engine, disk, _, cache = flush_fixture () in
  for b = 0 to 5 do
    Block_cache.mark_dirty cache
      (Block_cache.get cache ~blkno:b ~owner:Fs_types.Meta ~fill:Block_cache.Zero)
  done;
  let writes = Array.make 6 0 in
  Disk.set_on_complete disk (fun ~sector ~count:_ ~write ->
      if write then begin
        let b = block_of_sector sector in
        writes.(b) <- writes.(b) + 1
      end);
  (* Due during block 0's write: flush everything but the block in flight. *)
  ignore
    (Engine.schedule_at engine ~time:(Engine.now engine + 1) (fun _ ->
         ignore
           (Block_cache.flush_dirty cache ~sync:false
              ~only:(fun e -> e.Block_cache.blkno <> 0)
              ())));
  let flushed =
    Block_cache.flush_dirty cache ~sync:true ~only:(fun e -> e.Block_cache.blkno mod 2 = 0) ()
  in
  check Alcotest.int "the outer flush wrote only block 0" 1 flushed;
  check (Alcotest.list Alcotest.int) "selected blocks on the platter on return" [ 1; 1; 1 ]
    [ writes.(0); writes.(2); writes.(4) ];
  Disk.drain disk;
  check (Alcotest.array Alcotest.int) "each dirty block written exactly once"
    (Array.make 6 1) writes;
  let in_table = ref 0 in
  Block_cache.iter cache (fun e -> if e.Block_cache.dirty then incr in_table);
  check Alcotest.int "dirty count matches the table" !in_table (Block_cache.dirty_count cache);
  check Alcotest.int "nothing left dirty" 0 (Block_cache.dirty_count cache)

(* The cache keeps a table of its dirty entries so that a flush visits
   only them. Model check against a full scan of the cache: random
   operation sequences, and after every step the count must equal the
   entries whose flag is set. Every flush, including one nested in
   another flush's disk wait, must write exactly the blocks the scan
   selects, in block order, and a synchronous one must return with them
   on the platter. *)
let test_dirty_index_model () =
  let engine, disk, alloc, cache = flush_fixture () in
  let written = ref [] in
  Disk.set_on_complete disk (fun ~sector ~count:_ ~write ->
      if write then written := block_of_sector sector :: !written);
  let nblocks = 16 in
  let rng = Random.State.make [| 15 |] in
  let step = ref 0 in
  (* One failure message per mismatch, not a log line per passing step. *)
  let same what expected actual =
    let show l = String.concat "; " (List.map string_of_int l) in
    if expected <> actual then
      Alcotest.failf "step %d, %s: expected [%s], got [%s]" !step what (show expected) (show actual)
  in
  (* What a full-table scan selects, in block order. *)
  let scan only =
    let sel = ref [] in
    Block_cache.iter cache (fun e ->
        if e.Block_cache.dirty && only e then sel := e.Block_cache.blkno :: !sel);
    List.rev !sel
  in
  let agree what =
    same (what ^ ": dirty_count") [ List.length (scan (fun _ -> true)) ]
      [ Block_cache.dirty_count cache ]
  in
  (* Land every queued write, then compare the blocks written since the
     last check, in completion order. *)
  let writes_are what expected =
    Disk.drain disk;
    same what expected (List.rev !written);
    written := []
  in
  let filter () =
    if Random.State.int rng 4 = 0 then fun _ -> true
    else
      let keep = Array.init nblocks (fun _ -> Random.State.bool rng) in
      fun (e : Block_cache.entry) -> keep.(e.Block_cache.blkno)
  in
  let any_blkno () = Random.State.int rng nblocks in
  let get () =
    Block_cache.get cache ~blkno:(any_blkno ()) ~owner:Fs_types.Meta ~fill:Block_cache.Zero
  in
  let saved = ref (Block_cache.checkpoint cache, Page_alloc.checkpoint alloc) in
  let dirty_restores = ref 0 and skipping_nests = ref 0 in
  while !step < 4000 do
    incr step;
    (match Random.State.int rng 20 with
    | 0 | 1 | 2 | 3 -> ignore (get ())
    | 4 | 5 | 6 | 7 | 8 -> Block_cache.mark_dirty cache (get ())
    | 9 | 10 -> (
      match Block_cache.lookup cache ~blkno:(any_blkno ()) with
      | None -> ()
      | Some e ->
        Block_cache.write_back cache e ~sync:(!step mod 2 = 0);
        writes_are "write_back" [ e.Block_cache.blkno ])
    | 11 -> Block_cache.invalidate cache ~blkno:(any_blkno ())
    | 12 -> if Random.State.int rng 4 = 0 then Block_cache.drop_all cache
    | 13 -> saved := (Block_cache.checkpoint cache, Page_alloc.checkpoint alloc)
    | 14 ->
      let ck, alloc_ck = !saved in
      Block_cache.restore cache ck;
      Page_alloc.restore alloc alloc_ck;
      if Block_cache.dirty_count cache > 0 then incr dirty_restores
    | 15 | 16 ->
      let only = filter () in
      let selected = scan only in
      same "async flush count" [ List.length selected ]
        [ Block_cache.flush_dirty cache ~sync:false ~only () ];
      writes_are "async flush writes" selected
    | _ ->
      let only = filter () in
      let selected = scan only in
      (* Half the time a second, asynchronous flush (the update daemon's
         pass) falls due during the first block's write. *)
      let nested = ref None in
      if selected <> [] && Random.State.bool rng then
        ignore
          (Engine.schedule_at engine ~time:(Engine.now engine + 1) (fun _ ->
               let only = filter () in
               let inner = scan only in
               same "nested flush count" [ List.length inner ]
                 [ Block_cache.flush_dirty cache ~sync:false ~only () ];
               agree "nested flush";
               nested := Some inner));
      let flushed = Block_cache.flush_dirty cache ~sync:true ~only () in
      same "sync flush: selection on the platter on return" []
        (List.filter (fun b -> not (List.mem b !written)) selected);
      (* The block in flight is written first; the nested flush's writes
         queue behind it, and the outer flush skips what they cleaned. *)
      let expected, outer =
        match (!nested, selected) with
        | Some inner, first :: rest ->
          let rest' = List.filter (fun b -> not (List.mem b inner)) rest in
          if List.length rest' < List.length rest then incr skipping_nests;
          ((first :: inner) @ rest', 1 + List.length rest')
        | _ -> (selected, List.length selected)
      in
      same "sync flush count" [ outer ] [ flushed ];
      writes_are "sync flush writes" expected);
    agree "after the step"
  done;
  check Alcotest.bool "restores rebuilt a non-empty dirty table" true (!dirty_restores > 0);
  check Alcotest.bool "nested flushes cleaned outer candidates" true (!skipping_nests > 0)

(* ---------------- the interleaving campaigns ---------------- *)

let tcfg ?(seed = 1) ?(trials = 5) ~domains () = { Run.default with Run.seed; trials; domains }

(* The per-task audit checks warm recovery: a cold spec must be refused,
   not silently audited warm. *)
let test_cold_spec_rejected () =
  match Fuzzer.run_tasks ~spec:Explorer.wb_cold ~tasks:2 (tcfg ~trials:1 ~domains:1 ()) with
  | (_ : Fuzzer.treport) -> Alcotest.fail "cold spec audited warm"
  | exception Invalid_argument msg ->
    check Alcotest.bool "the message names the spec" true
      (String.starts_with ~prefix:"Fuzzer.run_attempt_tasks: wb-cold " msg)

let test_run_tasks_parallel_determinism () =
  (* lock-off so the pipeline exercises the multi-task shrinker and the
     final-state audit, not just clean trials. *)
  let r1 = Fuzzer.run_tasks ~locking:false ~tasks:2 (tcfg ~domains:1 ()) in
  let r4 = Fuzzer.run_tasks ~locking:false ~tasks:2 (tcfg ~domains:4 ()) in
  check Alcotest.string "byte-identical render at -j 1 and -j 4"
    (Fuzzer.render_tasks r1) (Fuzzer.render_tasks r4);
  check Alcotest.string "byte-identical json at -j 1 and -j 4"
    (Rio_util.Json.pretty (Fuzzer.treport_json r1))
    (Rio_util.Json.pretty (Fuzzer.treport_json r4))

let test_rio_prot_tasks_fuzz_clean () =
  let r = Fuzzer.run_tasks ~tasks:3 (tcfg ~domains:2 ()) in
  (match r.Fuzzer.tr_counterexamples with
  | [] -> ()
  | c :: _ ->
    Alcotest.failf "rio-prot violated under interleaving: %s"
      (String.concat "; " c.Fuzzer.tc_problems));
  check Alcotest.int "zero violations with locking on" 0 r.Fuzzer.tr_violations

let test_lock_off_caught_and_shrunk () =
  let r = Fuzzer.run_tasks ~locking:false ~tasks:2 (tcfg ~trials:6 ~domains:2 ()) in
  if r.Fuzzer.tr_violations = 0 then
    Alcotest.fail "lock-off produced no violations: the ablation is invisible";
  check Alcotest.bool "caught and shrunk to a small repro" true (Fuzzer.treport_ok r);
  match r.Fuzzer.tr_counterexamples with
  | [] -> Alcotest.fail "violations were not shrunk"
  | c :: _ ->
    check Alcotest.bool "repro fits the readability bar" true
      (Fuzzer.total_ops c.Fuzzer.tc_progs <= Fuzzer.max_repro_ops);
    check Alcotest.bool "at most two tasks left" true
      (Fuzzer.nonempty_tasks c.Fuzzer.tc_progs <= 2);
    check Alcotest.bool "shrunk repro keeps its problems" true (c.Fuzzer.tc_problems <> [])

let test_explorer_interleave_determinism () =
  let cfg domains = { Run.default with Run.seed = 2; domains } in
  let scenarios = List.map Fuzzer.scenario [ "creat"; "two-task" ] in
  let r1 = Fuzzer.explore ~scenarios ~interleave:2 (cfg 1) in
  let r4 = Fuzzer.explore ~scenarios ~interleave:2 (cfg 4) in
  check Alcotest.string "byte-identical render at -j 1 and -j 4" (Explorer.render r1)
    (Explorer.render r4);
  check Alcotest.int "rio-prot survives every interleaved crash point" 0
    (Explorer.violation_count r1);
  check Alcotest.bool "interleaving jobs reported under #i<j> slugs" true
    (List.exists
       (fun s -> s.Explorer.slug = "two-task#i1" && s.Explorer.crash_points > 0)
       r1.Explorer.scenarios)

let () =
  Alcotest.run "rio_task"
    [
      ( "sched",
        [
          Alcotest.test_case "seeded determinism" `Quick test_sched_deterministic;
          Alcotest.test_case "lock serializes RMW" `Quick test_lock_serializes_rmw;
          Alcotest.test_case "lock holder visible" `Quick test_lock_holder_visible;
        ] );
      ( "task",
        [
          Alcotest.test_case "cwd and fd isolation" `Quick test_task_cwd_and_fd_isolation;
          Alcotest.test_case "syscall entry = wrappers" `Quick
            test_syscall_entry_matches_wrappers;
          Alcotest.test_case "flush_dirty early-out" `Quick test_flush_dirty_early_out;
          Alcotest.test_case "flush_dirty nested in a disk wait" `Quick test_flush_dirty_nested;
          Alcotest.test_case "dirty index = full scan" `Quick test_dirty_index_model;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "fuzz -j determinism" `Slow test_run_tasks_parallel_determinism;
          Alcotest.test_case "rio-prot fuzzes clean" `Slow test_rio_prot_tasks_fuzz_clean;
          Alcotest.test_case "lock-off caught and shrunk" `Slow
            test_lock_off_caught_and_shrunk;
          Alcotest.test_case "cold spec rejected" `Quick test_cold_spec_rejected;
          Alcotest.test_case "explorer interleave determinism" `Slow
            test_explorer_interleave_determinism;
        ] );
    ]
