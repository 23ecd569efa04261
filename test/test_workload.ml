(* Tests for workloads: scripts, file trees, memTest (replay determinism is
   the critical property), Andrew, Sdet, cp+rm. *)

module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Kernel = Rio_kernel.Kernel
module Fs = Rio_fs.Fs
module Script = Rio_workload.Script
module File_tree = Rio_workload.File_tree
module Memtest = Rio_workload.Memtest
module Andrew = Rio_workload.Andrew
module Sdet = Rio_workload.Sdet
module Cp_rm = Rio_workload.Cp_rm

let check = Alcotest.check

let fresh_fs ?(policy = Fs.Mfs) () =
  let engine = Engine.create () in
  let kernel = Kernel.boot ~engine ~costs:Costs.default (Kernel.config_with_seed 2) in
  Kernel.format kernel;
  Kernel.mount kernel ~policy

(* ---------------- script ---------------- *)

let test_script_runner () =
  let fs = fresh_fs () in
  let ops =
    [
      Script.Mkdir "/w";
      Script.Open_write "/w/f";
      Script.Write_chunk { seed = 3; offset = 0; len = 6 };
      Script.Write_chunk { seed = 3; offset = 6; len = 6 };
      Script.Close;
      Script.Stat "/w/f";
      Script.Read_whole "/w/f";
      Script.Rename ("/w/f", "/w/g");
      Script.Unlink "/w/g";
      Script.Rmdir "/w";
    ]
  in
  let r = Script.runner ops in
  check Alcotest.int "ops counted" 10 (Script.ops_total r);
  Script.run_all r fs;
  check Alcotest.bool "finished" true (Script.finished r);
  check Alcotest.bool "cleaned up" false (Fs.exists fs "/w")

(* Chunks are generated into each runner's buffer just before their
   write. Two interleaved writers of multi-chunk files catch a buffer
   shared between runners or kept by the file system past the write, under
   every policy's write path. *)
let test_script_write_file_ops () =
  List.iter
    (fun policy ->
      let fs = fresh_fs ~policy () in
      let files = [ ("/f", 5, 20_000); ("/g", 6, 3 * Script.chunk_size) ] in
      Script.interleave
        (List.map (fun (path, seed, len) -> Script.runner (Script.write_file_ops path ~seed ~len)) files)
        fs;
      List.iter
        (fun (path, seed, len) ->
          check Alcotest.bytes
            (Printf.sprintf "%s written in chunks under %s" path (Fs.policy_name policy))
            (Rio_util.Pattern.fill ~seed ~len) (Fs.read_file fs path))
        files)
    Fs.all_policies

let test_script_interleave () =
  let fs = fresh_fs () in
  let mk i =
    Script.runner
      (Script.Mkdir (Printf.sprintf "/s%d" i)
      :: Script.write_file_ops (Printf.sprintf "/s%d/f" i) ~seed:i ~len:100)
  in
  Script.interleave [ mk 1; mk 2; mk 3 ] fs;
  List.iter
    (fun i -> check Alcotest.bool "all scripts ran" true (Fs.exists fs (Printf.sprintf "/s%d/f" i)))
    [ 1; 2; 3 ]

let test_script_interleave_with_callback () =
  let fs = fresh_fs () in
  let calls = ref 0 in
  let r = Script.runner (Script.Mkdir "/cb" :: Script.write_file_ops "/cb/f" ~seed:1 ~len:30_000) in
  Script.interleave_with [ r ] fs ~every:2 (fun () -> incr calls);
  check Alcotest.bool "callback interposed" true (!calls >= 2)

let test_script_describe () =
  let ops =
    [
      Script.Mkdir "/d";
      Script.Open_write "/d/f";
      Script.Write_chunk { seed = 4; offset = 0; len = 100 };
      Script.Write_chunk { seed = 4; offset = 100; len = 50 };
      Script.Close;
      Script.Read_whole "/d/f";
      Script.Stat "/d/f";
      Script.Unlink "/d/f";
      Script.Rmdir "/d";
      Script.Cpu 500;
    ]
  in
  let s = Script.describe ops in
  check Alcotest.int "ops" 10 s.Script.operations;
  check Alcotest.int "bytes written" 150 s.Script.bytes_written;
  check Alcotest.int "creates" 1 s.Script.opens_write;
  check Alcotest.int "whole reads" 1 s.Script.whole_file_reads;
  check Alcotest.int "cpu" 500 s.Script.cpu_us

let test_sdet_scripts_accessor () =
  let sdet = Sdet.create ~scripts:2 ~ops_per_script:15 () in
  check Alcotest.int "two scripts" 2 (List.length (Sdet.scripts sdet));
  List.iter
    (fun ops -> check Alcotest.bool "non-trivial" true (List.length ops > 10))
    (Sdet.scripts sdet)

(* ---------------- file tree ---------------- *)

let test_tree_respects_budget () =
  let spec = File_tree.default ~root:"/src" ~total_bytes:500_000 in
  let t = File_tree.generate spec in
  let total = File_tree.total_bytes t in
  check Alcotest.bool "near the budget" true (total > 250_000 && total <= 500_000)

let test_tree_deterministic () =
  let spec = File_tree.default ~root:"/src" ~total_bytes:200_000 in
  check Alcotest.bool "same spec same tree" true
    (File_tree.generate spec = File_tree.generate spec)

let test_tree_parents_first () =
  let t = File_tree.generate (File_tree.default ~root:"/src" ~total_bytes:300_000) in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen "/src" ();
  List.iter
    (fun d ->
      (match String.rindex_opt d '/' with
      | Some i when i > 0 ->
        let parent = String.sub d 0 i in
        if parent <> "" && parent <> "/src" then
          check Alcotest.bool (Printf.sprintf "parent of %s first" d) true (Hashtbl.mem seen parent)
      | _ -> ());
      Hashtbl.replace seen d ())
    t.File_tree.dirs

let test_tree_create_and_copy_ops_run () =
  let fs = fresh_fs () in
  let t = File_tree.generate (File_tree.default ~root:"/src" ~total_bytes:150_000) in
  Script.run_all (Script.runner (File_tree.create_ops t)) fs;
  List.iter
    (fun (path, seed, len) ->
      check Alcotest.bytes ("tree file " ^ path) (Rio_util.Pattern.fill ~seed ~len)
        (Fs.read_file fs path))
    t.File_tree.files;
  Script.run_all (Script.runner (File_tree.copy_ops t ~src_root:"/src" ~dst_root:"/dst")) fs;
  let copy = File_tree.rebase t ~src_root:"/src" ~dst_root:"/dst" in
  List.iter
    (fun (path, seed, len) ->
      check Alcotest.bytes ("copied " ^ path) (Rio_util.Pattern.fill ~seed ~len)
        (Fs.read_file fs path))
    copy.File_tree.files;
  Script.run_all (Script.runner (File_tree.remove_ops copy)) fs;
  check Alcotest.bool "copy removed" false (Fs.exists fs "/dst");
  check Alcotest.bool "source intact" true (Fs.exists fs "/src")

(* ---------------- memtest ---------------- *)

let test_memtest_replay_matches_live () =
  (* THE property §3.2 depends on: replaying N steps without a file system
     reconstructs the live model exactly. *)
  let fs = fresh_fs () in
  let config = { Memtest.default_config with Memtest.seed = 123 } in
  let live = Memtest.create config in
  for _ = 1 to 300 do
    Memtest.step live ~fs ()
  done;
  let replayed = Memtest.replay config ~steps:300 in
  check Alcotest.int "file counts agree" (Memtest.file_count live) (Memtest.file_count replayed);
  check Alcotest.int "byte totals agree" (Memtest.total_model_bytes live)
    (Memtest.total_model_bytes replayed);
  (* And both agree with the file system. *)
  check (Alcotest.list Alcotest.string) "no discrepancies" []
    (List.map Memtest.discrepancy_to_string
       (Memtest.compare_with_fs replayed fs ~exempt:[]))

let test_memtest_live_verify_clean () =
  let fs = fresh_fs () in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed = 5 } in
  for _ = 1 to 400 do
    Memtest.step mt ~fs ()
  done;
  check Alcotest.int "no live mismatches on a healthy fs" 0 (Memtest.live_mismatches mt)

let test_memtest_detects_missing_file () =
  let fs = fresh_fs () in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed = 5 } in
  for _ = 1 to 100 do
    Memtest.step mt ~fs ()
  done;
  (* Sabotage: delete a file behind memTest's back. *)
  let victim =
    match Fs.readdir fs "/memtest" with
    | name :: _ when Fs.stat fs ("/memtest/" ^ name) |> fun st -> st.Fs.st_ftype = Rio_fs.Fs_types.Regular ->
      Some ("/memtest/" ^ name)
    | _ -> None
  in
  match victim with
  | None -> () (* unlucky listing order; nothing to assert *)
  | Some path ->
    Fs.unlink fs path;
    let d = Memtest.compare_with_fs mt fs ~exempt:[] in
    check Alcotest.bool "missing file reported" true (d <> [])

let test_memtest_detects_content_change () =
  let fs = fresh_fs () in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed = 6 } in
  for _ = 1 to 100 do
    Memtest.step mt ~fs ()
  done;
  (* Corrupt one file through the fs interface. *)
  let files = Fs.readdir fs "/memtest" in
  let victim =
    List.find_map
      (fun n ->
        let p = "/memtest/" ^ n in
        let st = Fs.stat fs p in
        if st.Fs.st_ftype = Rio_fs.Fs_types.Regular && st.Fs.st_size > 0 then Some p else None)
      files
  in
  match victim with
  | None -> ()
  | Some path ->
    let fd = Fs.open_file fs path in
    Fs.pwrite fs fd ~offset:0 (Bytes.of_string "\xFF");
    Fs.close fs fd;
    let d = Memtest.compare_with_fs mt fs ~exempt:[] in
    check Alcotest.bool "content mismatch reported" true
      (List.exists (function Memtest.Content_mismatch _ -> true | _ -> false) d);
    (* The same file exempted is not reported. *)
    let d' = Memtest.compare_with_fs mt fs ~exempt:[ path ] in
    check Alcotest.bool "exemption honoured" false
      (List.exists
         (function Memtest.Content_mismatch p -> p = path | _ -> false)
         d')

let test_memtest_touched_does_not_advance () =
  let config = { Memtest.default_config with Memtest.seed = 9 } in
  let mt = Memtest.replay config ~steps:50 in
  let t1 = Memtest.touched_by_next_step mt in
  let t2 = Memtest.touched_by_next_step mt in
  check (Alcotest.list Alcotest.string) "idempotent peek" t1 t2;
  check Alcotest.int "steps unchanged" 50 (Memtest.steps_done mt)

let test_memtest_loss_zero_on_healthy () =
  let fs = fresh_fs () in
  let mt = Memtest.create { Memtest.default_config with Memtest.seed = 7 } in
  for _ = 1 to 200 do
    Memtest.step mt ~fs ()
  done;
  check (Alcotest.pair Alcotest.int Alcotest.int) "nothing lost" (0, 0)
    (Memtest.loss_against_fs mt fs)

let test_memtest_fsync_flag_writes_through () =
  let engine = Engine.create () in
  let kernel = Kernel.boot ~engine ~costs:Costs.default (Kernel.config_with_seed 2) in
  Kernel.format kernel;
  let fs = Kernel.mount kernel ~policy:Fs.Ufs_default in
  let mt =
    Memtest.create { Memtest.default_config with Memtest.seed = 8; fsync_every_write = true }
  in
  for _ = 1 to 30 do
    Memtest.step mt ~fs ()
  done;
  check Alcotest.int "nothing pending after fsynced steps" 0
    (Rio_disk.Disk.pending_writes (Kernel.disk kernel))

let test_memtest_loss_between () =
  let config = { Memtest.default_config with Memtest.seed = 41 } in
  let earlier = Memtest.replay config ~steps:50 in
  let later = Memtest.replay config ~steps:120 in
  let files, bytes = Memtest.loss_between ~earlier ~later in
  check Alcotest.bool "rollback loses something" true (files > 0 && bytes > 0);
  let f0, b0 = Memtest.loss_between ~earlier:later ~later in
  check (Alcotest.pair Alcotest.int Alcotest.int) "self rollback loses nothing" (0, 0) (f0, b0)

(* ---------------- table 2 workloads ---------------- *)

let test_andrew_runs () =
  let fs = fresh_fs () in
  let a = Andrew.create ~scale:0.05 () in
  Andrew.run a fs;
  check Alcotest.bool "link output produced" true (Fs.exists fs "/andrew/a.out");
  check Alcotest.bool "copy phase ran" true (Fs.exists fs "/andrew/copy")

let test_sdet_runs () =
  let fs = fresh_fs () in
  let s = Sdet.create ~scripts:3 ~ops_per_script:40 () in
  check Alcotest.int "script count" 3 (Sdet.script_count s);
  Sdet.run s fs;
  List.iter
    (fun i -> check Alcotest.bool "script dir exists" true (Fs.exists fs (Printf.sprintf "/sdet%d" i)))
    [ 0; 1; 2 ]

let test_cp_rm_phases () =
  let fs = fresh_fs () in
  let w = Cp_rm.create ~total_bytes:200_000 () in
  Cp_rm.setup w fs;
  check Alcotest.bool "source exists" true (Fs.exists fs (Cp_rm.source_root w));
  Cp_rm.run_cp w fs;
  check Alcotest.bool "copy exists" true (Fs.exists fs (Cp_rm.dest_root w));
  Cp_rm.run_rm w fs;
  check Alcotest.bool "copy removed" false (Fs.exists fs (Cp_rm.dest_root w));
  check Alcotest.bool "source still there" true (Fs.exists fs (Cp_rm.source_root w))

let () =
  Alcotest.run "rio_workload"
    [
      ( "script",
        [
          Alcotest.test_case "runner" `Quick test_script_runner;
          Alcotest.test_case "write_file_ops" `Quick test_script_write_file_ops;
          Alcotest.test_case "interleave" `Quick test_script_interleave;
          Alcotest.test_case "interleave callback" `Quick test_script_interleave_with_callback;
          Alcotest.test_case "describe" `Quick test_script_describe;
          Alcotest.test_case "sdet scripts" `Quick test_sdet_scripts_accessor;
        ] );
      ( "file_tree",
        [
          Alcotest.test_case "budget" `Quick test_tree_respects_budget;
          Alcotest.test_case "deterministic" `Quick test_tree_deterministic;
          Alcotest.test_case "parents first" `Quick test_tree_parents_first;
          Alcotest.test_case "create/copy/remove ops" `Quick test_tree_create_and_copy_ops_run;
        ] );
      ( "memtest",
        [
          Alcotest.test_case "replay == live" `Quick test_memtest_replay_matches_live;
          Alcotest.test_case "live verify clean" `Quick test_memtest_live_verify_clean;
          Alcotest.test_case "detects missing file" `Quick test_memtest_detects_missing_file;
          Alcotest.test_case "detects content change" `Quick test_memtest_detects_content_change;
          Alcotest.test_case "peek does not advance" `Quick test_memtest_touched_does_not_advance;
          Alcotest.test_case "zero loss healthy" `Quick test_memtest_loss_zero_on_healthy;
          Alcotest.test_case "fsync flag" `Quick test_memtest_fsync_flag_writes_through;
          Alcotest.test_case "loss between models" `Quick test_memtest_loss_between;
        ] );
      ( "table2_workloads",
        [
          Alcotest.test_case "andrew" `Quick test_andrew_runs;
          Alcotest.test_case "sdet" `Quick test_sdet_runs;
          Alcotest.test_case "cp+rm" `Quick test_cp_rm_phases;
        ] );
    ]
