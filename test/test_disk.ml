(* Tests for the simulated disk: storage, timing, asynchronous queue, crash
   semantics. *)

module Disk = Rio_disk.Disk
module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs

let check = Alcotest.check

let fresh () =
  let engine = Engine.create () in
  (engine, Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:5 ())

let sector_of_string s =
  let b = Bytes.make Disk.sector_bytes '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let test_peek_poke () =
  let _, d = fresh () in
  Disk.poke d ~sector:7 (Bytes.of_string "hello");
  let got = Disk.peek d ~sector:7 in
  check Alcotest.string "contents" "hello" (Bytes.sub_string got 0 5);
  check Alcotest.int "padded" 0 (Char.code (Bytes.get got 5))

let test_fresh_sectors_zero () =
  let _, d = fresh () in
  check Alcotest.bytes "zero filled" (Bytes.make Disk.sector_bytes '\000') (Disk.peek d ~sector:0)

let test_write_read_sync () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:10 (sector_of_string "abc");
  let t1 = Engine.now engine in
  check Alcotest.bool "sync write takes time" true (t1 > 0);
  let got = Disk.read_sync d ~sector:10 ~count:1 in
  check Alcotest.string "roundtrip" "abc" (Bytes.sub_string got 0 3);
  check Alcotest.bool "read takes time too" true (Engine.now engine > t1)

let test_sequential_cheaper () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:0 (sector_of_string "a");
  let t0 = Engine.now engine in
  Disk.write_sync d ~sector:1 (sector_of_string "b") (* head continues *);
  let sequential = Engine.now engine - t0 in
  Disk.write_sync d ~sector:2000 (sector_of_string "c") (* far seek *);
  let t1 = Engine.now engine in
  Disk.write_sync d ~sector:100 (sector_of_string "d") (* seek back *);
  let seeky = Engine.now engine - t1 in
  check Alcotest.bool "sequential is cheaper than seeking" true (sequential < seeky)

let test_rewrite_pays_rotation () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:50 (sector_of_string "a");
  let t0 = Engine.now engine in
  Disk.write_sync d ~sector:50 (sector_of_string "b") (* missed revolution *);
  let rewrite = Engine.now engine - t0 in
  check Alcotest.bool "rewrite costs a revolution" true
    (rewrite >= 2 * Costs.default.Costs.disk_rotation_us)

let test_async_commits_later () =
  let engine, d = fresh () in
  Disk.write_async d ~sector:20 (sector_of_string "later");
  check Alcotest.int "not yet committed" 0 (Char.code (Bytes.get (Disk.peek d ~sector:20) 0));
  check Alcotest.int "pending" 1 (Disk.pending_writes d);
  Disk.drain d;
  check Alcotest.string "committed after drain" "later"
    (Bytes.sub_string (Disk.peek d ~sector:20) 0 5);
  check Alcotest.int "no pending" 0 (Disk.pending_writes d);
  ignore engine

let test_async_zero_caller_time () =
  let engine, d = fresh () in
  let t0 = Engine.now engine in
  Disk.write_async d ~sector:20 (sector_of_string "x");
  check Alcotest.int "caller does not wait" t0 (Engine.now engine)

let test_crash_loses_queue () =
  let _, d = fresh () in
  Disk.poke d ~sector:30 (sector_of_string "old");
  Disk.write_async d ~sector:30 (sector_of_string "new");
  (* The request has not started (disk idle? it starts immediately at now);
     in-flight tearing applies. Crash right away. *)
  Disk.crash d;
  check Alcotest.int "queue cleared" 0 (Disk.pending_writes d);
  let got = Bytes.sub_string (Disk.peek d ~sector:30) 0 3 in
  check Alcotest.bool "data is either old or torn, not new" true (got <> "new")

let test_crash_tears_inflight () =
  let engine, d = fresh () in
  (* Start a long multi-sector write and crash midway. *)
  let big = Bytes.make (64 * Disk.sector_bytes) 'W' in
  Disk.write_async d ~sector:100 big;
  Engine.advance_by engine (Costs.default.Costs.disk_seek_us + 2_000);
  Disk.crash d;
  (* Some prefix committed; at least one sector is not 'W'-filled. *)
  let all_w = ref true in
  for s = 100 to 163 do
    if Disk.peek d ~sector:s <> Bytes.make Disk.sector_bytes 'W' then all_w := false
  done;
  check Alcotest.bool "not all sectors survived" false !all_w

let test_bounded_queue_blocks () =
  let engine, d = fresh () in
  let t0 = Engine.now engine in
  for i = 0 to 40 do
    Disk.write_async d ~sector:(i * 16) (sector_of_string "q")
  done;
  (* More than the queue depth: the caller must have waited for room. *)
  check Alcotest.bool "caller throttled" true (Engine.now engine > t0)

let test_read_after_queued_write () =
  let _, d = fresh () in
  Disk.write_async d ~sector:40 (sector_of_string "queued");
  (* A FIFO read behind the write sees its result. *)
  let got = Disk.read_sync d ~sector:40 ~count:1 in
  check Alcotest.string "read sees earlier queued write" "queued" (Bytes.sub_string got 0 6)

let test_stats () =
  let _, d = fresh () in
  Disk.write_sync d ~sector:0 (sector_of_string "a");
  ignore (Disk.read_sync d ~sector:0 ~count:1);
  let s = Disk.stats d in
  check Alcotest.int "writes" 1 s.Disk.writes;
  check Alcotest.int "reads" 1 s.Disk.reads;
  Disk.reset_stats d;
  check Alcotest.int "reset" 0 (Disk.stats d).Disk.reads

let test_out_of_range () =
  let _, d = fresh () in
  Alcotest.check_raises "read past capacity"
    (Invalid_argument "Disk: sectors [4096,+1) outside capacity 4096") (fun () ->
      ignore (Disk.read_sync d ~sector:4096 ~count:1))

let test_deterministic_tear () =
  (* Same seed, same crash point -> identical torn bytes. *)
  let run () =
    let engine = Engine.create () in
    let d = Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:99 () in
    Disk.write_async d ~sector:5 (sector_of_string "x");
    Engine.advance_by engine 1_000;
    Disk.crash d;
    Disk.peek d ~sector:5
  in
  check Alcotest.bytes "deterministic" (run ()) (run ())

(* ---------------- nonzero-bitmap invariant + checkpoint guards ---------------- *)

let test_invariant_after_poke () =
  let _, d = fresh () in
  Disk.poke d ~sector:3 (sector_of_string "abc");
  Disk.check_invariant d;
  (* Poking an all-zero buffer must clear the entry, not leave an all-zero
     platter entry behind the set bit. *)
  Disk.poke d ~sector:3 (Bytes.make Disk.sector_bytes '\000');
  Disk.check_invariant d;
  check Alcotest.bytes "reads back zero" (Bytes.make Disk.sector_bytes '\000')
    (Disk.peek d ~sector:3)

let test_invariant_after_crash () =
  let engine, d = fresh () in
  Disk.poke d ~sector:100 (sector_of_string "old");
  Disk.write_async d ~sector:100 (Bytes.make (8 * Disk.sector_bytes) 'W');
  Engine.advance_by engine 1_000;
  Disk.crash d;
  (* Whatever the tear left (garbage, prefix, or zeros), the bitmap must
     still match the entries exactly. *)
  Disk.check_invariant d

let test_invariant_after_sparse () =
  let _, d = fresh () in
  Disk.write_sync d ~sector:60 (sector_of_string "full");
  Disk.write_sync d ~sector:62 (sector_of_string "also");
  Disk.write_sync_sparse d ~sector:60 ~count:4 [ (3, sector_of_string "kept") ];
  Disk.check_invariant d;
  check Alcotest.bytes "zeroed" (Bytes.make Disk.sector_bytes '\000') (Disk.peek d ~sector:60);
  check Alcotest.bytes "zeroed" (Bytes.make Disk.sector_bytes '\000') (Disk.peek d ~sector:62);
  check Alcotest.string "extent" "kept" (Bytes.sub_string (Disk.peek d ~sector:63) 0 4)

let test_invariant_after_restore () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:8 (sector_of_string "kept");
  let ck = Disk.checkpoint d in
  Disk.write_sync d ~sector:8 (sector_of_string "overwritten");
  Disk.write_sync d ~sector:9 (sector_of_string "new");
  Disk.restore d ck;
  Disk.check_invariant d;
  check Alcotest.string "restored" "kept" (Bytes.sub_string (Disk.peek d ~sector:8) 0 4);
  check Alcotest.bytes "sector 9 back to zero" (Bytes.make Disk.sector_bytes '\000')
    (Disk.peek d ~sector:9);
  ignore engine

let test_checkpoint_refuses_queued () =
  let _, d = fresh () in
  Disk.write_async d ~sector:12 (sector_of_string "queued");
  (match Disk.checkpoint d with
  | (_ : Disk.checkpoint) ->
    Alcotest.fail "checkpoint accepted a non-empty queue (the rewind would lose the write)"
  | exception Invalid_argument _ -> ());
  (* After a drain the same checkpoint succeeds. *)
  Disk.drain d;
  ignore (Disk.checkpoint d : Disk.checkpoint)

(* ---------------- sparse writes ----------------

   [write_sync_sparse] must be indistinguishable from [write_sync] of the
   materialized buffer: same platter contents, statistics, clock and
   completion callbacks. Two disks start from the same random platter,
   one takes the materialized write and the other the sparse one. *)

let twin backend =
  let make () =
    let engine = Engine.create () in
    let d = Disk.create ~backend ~engine ~costs:Costs.default ~sectors:4096 ~seed:5 () in
    let completions = ref [] in
    Disk.set_on_complete d (fun ~sector ~count ~write ->
        completions := (sector, count, write, Engine.now engine) :: !completions);
    (engine, d, completions)
  in
  (make (), make ())

let random_sector prng =
  (* Mostly non-zero, sometimes all-zero, sometimes one stray byte. *)
  match Random.State.int prng 4 with
  | 0 -> Bytes.make Disk.sector_bytes '\000'
  | 1 ->
    let b = Bytes.make Disk.sector_bytes '\000' in
    Bytes.set b (Random.State.int prng Disk.sector_bytes) 'x';
    b
  | _ -> Bytes.init Disk.sector_bytes (fun _ -> Char.chr (Random.State.int prng 256))

let random_extents prng ~count =
  let rec go next acc =
    if next >= count || Random.State.int prng 5 = 0 then List.rev acc
    else begin
      let off = next + Random.State.int prng (min 8 (count - next)) in
      let n = 1 + Random.State.int prng (min 6 (count - off)) in
      let data = Bytes.concat Bytes.empty (List.init n (fun _ -> random_sector prng)) in
      go (off + n) ((off, data) :: acc)
    end
  in
  go 0 []

let materialize ~count extents =
  let b = Bytes.make (count * Disk.sector_bytes) '\000' in
  List.iter
    (fun (off, data) -> Bytes.blit data 0 b (off * Disk.sector_bytes) (Bytes.length data))
    extents;
  b

let check_twins msg ((e1, d1, c1), (e2, d2, c2)) =
  for sector = 0 to Disk.capacity_sectors d1 - 1 do
    if not (Bytes.equal (Disk.peek d1 ~sector) (Disk.peek d2 ~sector)) then
      Alcotest.failf "%s: sector %d differs" msg sector
  done;
  check Alcotest.bool (msg ^ ": stats") true (Disk.stats d1 = Disk.stats d2);
  check Alcotest.int (msg ^ ": clock") (Engine.now e1) (Engine.now e2);
  check Alcotest.(list (pair (pair int int) (pair bool int))) (msg ^ ": completions")
    (List.map (fun (s, n, w, t) -> ((s, n), (w, t))) !c1)
    (List.map (fun (s, n, w, t) -> ((s, n), (w, t))) !c2);
  Disk.check_invariant d1;
  Disk.check_invariant d2

let test_sparse_matches_write_sync backend () =
  let prng = Random.State.make [| 12 |] in
  let ((_, d1, _), (_, d2, _)) as twins = twin backend in
  (* The same random platter on both, so the sparse commit has entries to
     overwrite and to sweep away. *)
  for _ = 1 to 300 do
    let sector = Random.State.int prng 600 and data = random_sector prng in
    Disk.poke d1 ~sector data;
    Disk.poke d2 ~sector data
  done;
  for round = 1 to 40 do
    let count = 1 + Random.State.int prng 64 in
    let sector = Random.State.int prng (600 - count) in
    let extents = random_extents prng ~count in
    Disk.write_sync d1 ~sector (materialize ~count extents);
    Disk.write_sync_sparse d2 ~sector ~count extents;
    check_twins (Printf.sprintf "round %d" round) twins
  done;
  (* Degenerate shapes: no extents (all zeros), one extent covering it all. *)
  Disk.write_sync d1 ~sector:100 (materialize ~count:16 []);
  Disk.write_sync_sparse d2 ~sector:100 ~count:16 [];
  let full = [ (0, Bytes.concat Bytes.empty (List.init 16 (fun _ -> random_sector prng))) ] in
  Disk.write_sync d1 ~sector:200 (materialize ~count:16 full);
  Disk.write_sync_sparse d2 ~sector:200 ~count:16 full;
  check_twins "degenerate" twins

let test_sparse_rejects_bad_extents () =
  let engine, d = fresh () in
  let sec = sector_of_string "x" in
  let bad =
    [
      ("overlap", [ (0, Bytes.cat sec sec); (1, sec) ]);
      ("unsorted", [ (3, sec); (1, sec) ]);
      ("partial sector", [ (0, Bytes.of_string "short") ]);
      ("past count", [ (3, Bytes.cat sec sec) ]);
      ("negative offset", [ (-1, sec) ]);
    ]
  in
  List.iter
    (fun (name, extents) ->
      match Disk.write_sync_sparse d ~sector:10 ~count:4 extents with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    bad;
  (* A rejected request never reached the disk. *)
  check Alcotest.int "no time charged" 0 (Engine.now engine);
  check Alcotest.int "no writes counted" 0 (Disk.stats d).Disk.writes

let () =
  Alcotest.run "rio_disk"
    [
      ( "storage",
        [
          Alcotest.test_case "peek/poke" `Quick test_peek_poke;
          Alcotest.test_case "fresh sectors zero" `Quick test_fresh_sectors_zero;
          Alcotest.test_case "sync roundtrip" `Quick test_write_read_sync;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
        ] );
      ( "timing",
        [
          Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper;
          Alcotest.test_case "rewrite pays rotation" `Quick test_rewrite_pays_rotation;
          Alcotest.test_case "async is free for caller" `Quick test_async_zero_caller_time;
          Alcotest.test_case "bounded queue throttles" `Quick test_bounded_queue_blocks;
        ] );
      ( "queue+crash",
        [
          Alcotest.test_case "async commits later" `Quick test_async_commits_later;
          Alcotest.test_case "crash loses queue" `Quick test_crash_loses_queue;
          Alcotest.test_case "crash tears in-flight" `Quick test_crash_tears_inflight;
          Alcotest.test_case "read sees queued write" `Quick test_read_after_queued_write;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "deterministic tear" `Quick test_deterministic_tear;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "after poke (incl. all-zero)" `Quick test_invariant_after_poke;
          Alcotest.test_case "after crash tear" `Quick test_invariant_after_crash;
          Alcotest.test_case "after write_sync_sparse" `Quick test_invariant_after_sparse;
          Alcotest.test_case "after checkpoint/restore" `Quick test_invariant_after_restore;
          Alcotest.test_case "checkpoint refuses queued writes" `Quick
            test_checkpoint_refuses_queued;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "matches write_sync (scsi)" `Quick
            (test_sparse_matches_write_sync Rio_disk.Backend.Scsi);
          Alcotest.test_case "matches write_sync (nvmm)" `Quick
            (test_sparse_matches_write_sync Rio_disk.Backend.Nvmm);
          Alcotest.test_case "rejects malformed extents" `Quick test_sparse_rejects_bad_extents;
        ] );
    ]
