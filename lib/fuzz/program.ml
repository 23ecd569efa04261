module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Vista = Rio_txn.Vista
module Pattern = Rio_util.Pattern
module Script = Rio_workload.Script
module Gen = Rio_workload.Script.Gen
module Model = Rio_workload.Script.Gen.Model
module Task = Rio_task.Task
module Sched = Rio_task.Sched

let root = "/fuzz"
let keep_path = "/fuzz/keep"
let keep_seed = 0xbeef
let keep_len = 2000
let ledger_path = "/fuzz/ledger"
let ledger_size = 1024
let ledger_setup_seed = 0x1ed9e5

let gen_spec = Gen.default_spec ~root

let ledger_pattern seed = Pattern.fill ~seed ~len:ledger_size

type world = { fs : Fs.t; store : Vista.t }

let setup fs =
  Fs.mkdir fs root;
  Fs.write_file fs keep_path (Pattern.fill ~seed:keep_seed ~len:keep_len);
  let store = Vista.create fs ~path:ledger_path ~size:ledger_size in
  let txn = Vista.begin_txn store in
  Vista.write txn ~offset:0 (ledger_pattern ledger_setup_seed);
  Vista.commit txn;
  { fs; store }

(* Write [len] pattern bytes of stream [seed] through [fd], in the same
   chunk windows real programs use, with the stream's origin at file
   position [base] (so appends/overwrites continue the pattern from 0). *)
let write_stream fs fd ~base ~seed ~len =
  let rec go off =
    if off < len then begin
      let n = min Script.chunk_size (len - off) in
      Fs.pwrite fs fd ~offset:(base + off) (Pattern.fill_at ~seed ~offset:off ~len:n);
      go (off + n)
    end
  in
  go 0

let exec w (op : Gen.op) =
  match op with
  | Creat { path; seed; len } ->
    let fd = Fs.create w.fs path in
    write_stream w.fs fd ~base:0 ~seed ~len;
    Fs.close w.fs fd
  | Append { path; seed; len } ->
    let fd = Fs.open_file w.fs path in
    let base = Fs.fd_size w.fs fd in
    write_stream w.fs fd ~base ~seed ~len;
    Fs.close w.fs fd
  | Overwrite { path; offset; seed; len } ->
    let fd = Fs.open_file w.fs path in
    write_stream w.fs fd ~base:offset ~seed ~len;
    Fs.close w.fs fd
  | Mkdir path -> Fs.mkdir w.fs path
  | Unlink path -> Fs.unlink w.fs path
  | Rename { src; dst } -> Fs.rename w.fs src dst
  | Vista_txn { seed } ->
    let txn = Vista.begin_txn w.store in
    let half = ledger_size / 2 in
    Vista.write txn ~offset:0 (Pattern.fill_at ~seed ~offset:0 ~len:half);
    Vista.write txn ~offset:half (Pattern.fill_at ~seed ~offset:half ~len:(ledger_size - half));
    Vista.commit txn
  | Sync -> Fs.sync w.fs

(* ---------------- the multi-task world ---------------- *)

(* Each task owns a disjoint subtree /fuzz/t<i> with its own Vista
   ledger, so every task's expected state stays exact under any
   interleaving; what the tasks share — and what the interleaving
   fuzzer stresses — is the machinery underneath the namespace: the
   block caches, allocation bitmaps, shared inode sectors, the Rio
   registry, and the single shadow page. *)

let task_root i = Printf.sprintf "%s/t%d" root i
let task_ledger i = task_root i ^ "/ledger"
let task_gen_spec i = Gen.default_spec ~root:(task_root i)

type tworld = { tfs : Fs.t; stores : Vista.t array }

let setup_tasks fs ~tasks =
  Fs.mkdir fs root;
  Fs.write_file fs keep_path (Pattern.fill ~seed:keep_seed ~len:keep_len);
  let stores =
    Array.init tasks (fun i ->
        Fs.mkdir fs (task_root i);
        let store = Vista.create fs ~path:(task_ledger i) ~size:ledger_size in
        let txn = Vista.begin_txn store in
        Vista.write txn ~offset:0 (ledger_pattern ledger_setup_seed);
        Vista.commit txn;
        store)
  in
  { tfs = fs; stores }

(* One op, issued as [task] through the task-scoped syscall entry:
   paths are made cwd-relative (the fiber chdirs to its subtree), fds
   go through the task's local descriptor table, and — when [locking]
   — mutating calls hold the ownership lock. A Vista transaction holds
   it across the whole transaction: the undo-log protocol is one
   logical metadata update. *)
let exec_task sched ~locking ~task tw ~store (op : Gen.op) =
  let fs = tw.tfs in
  let sys call = Sched.syscall sched ~locking task fs call in
  let rel p =
    let cw = Task.cwd task ^ "/" in
    let n = String.length cw in
    if String.length p > n && String.sub p 0 n = cw then String.sub p n (String.length p - n)
    else p
  in
  let write_stream_sys gfd ~base ~seed ~len =
    let rec go off =
      if off < len then begin
        let n = min Script.chunk_size (len - off) in
        ignore
          (sys
             (Fs.Syscall.Pwrite
                { fd = gfd; offset = base + off; data = Pattern.fill_at ~seed ~offset:off ~len:n }));
        go (off + n)
      end
    in
    go 0
  in
  match op with
  | Creat { path; seed; len } ->
    let lfd = Task.install_fd task (Fs.Syscall.fd_exn (sys (Fs.Syscall.Creat (rel path)))) in
    let gfd = Task.global_fd task lfd in
    write_stream_sys gfd ~base:0 ~seed ~len;
    ignore (sys (Fs.Syscall.Close gfd));
    Task.release_fd task lfd
  | Append { path; seed; len } ->
    let lfd = Task.install_fd task (Fs.Syscall.fd_exn (sys (Fs.Syscall.Open (rel path)))) in
    let gfd = Task.global_fd task lfd in
    let base = Fs.fd_size fs gfd in
    write_stream_sys gfd ~base ~seed ~len;
    ignore (sys (Fs.Syscall.Close gfd));
    Task.release_fd task lfd
  | Overwrite { path; offset; seed; len } ->
    let lfd = Task.install_fd task (Fs.Syscall.fd_exn (sys (Fs.Syscall.Open (rel path)))) in
    let gfd = Task.global_fd task lfd in
    write_stream_sys gfd ~base:offset ~seed ~len;
    ignore (sys (Fs.Syscall.Close gfd));
    Task.release_fd task lfd
  | Mkdir path -> ignore (sys (Fs.Syscall.Mkdir (rel path)))
  | Unlink path -> ignore (sys (Fs.Syscall.Unlink (rel path)))
  | Rename { src; dst } -> ignore (sys (Fs.Syscall.Rename { src = rel src; dst = rel dst }))
  | Vista_txn { seed } ->
    let body () =
      let txn = Vista.begin_txn store in
      let half = ledger_size / 2 in
      Vista.write txn ~offset:0 (Pattern.fill_at ~seed ~offset:0 ~len:half);
      Vista.write txn ~offset:half
        (Pattern.fill_at ~seed ~offset:half ~len:(ledger_size - half));
      Vista.commit txn
    in
    if locking then Sched.with_lock sched ~key:Sched.fs_lock body else body ()
  | Sync -> ignore (sys Fs.Syscall.Sync)

(* ---------------- post-crash contracts ---------------- *)

(* What recovery owes us, per op state:
   - ops before the in-flight one: their whole effect, exactly;
   - the in-flight op: atomic-or-absent for metadata, prefix-for-data
     (unwritten tail bytes may read back as zero, never garbage);
   - everything untouched (the keep file, other files, directories): exact.
   The Vista store must hold exactly the last committed transaction —
   old-or-new when the crash interrupted one. *)

let problem fmt = Printf.ksprintf (fun s -> s) fmt

let check_exact fs ~path ~expect acc =
  if not (Fs.exists fs path) then problem "%s vanished" path :: acc
  else
    let b = Fs.read_file fs path in
    if Bytes.equal b expect then acc
    else if Bytes.length b <> Bytes.length expect then
      problem "%s has size %d, expected %d" path (Bytes.length b) (Bytes.length expect) :: acc
    else problem "%s contents corrupted" path :: acc

(* In-flight data write into [\[base, base+len)] over [old] toward
   [expect]: prefix of the file must be durable, bytes inside the window
   must each be old, new, or zero (an open store window the crash caught
   mid-copy), nothing outside the window may move. *)
let check_inflight_write fs ~path ~old ~expect acc =
  if not (Fs.exists fs path) then problem "%s vanished mid-write" path :: acc
  else begin
    let b = Fs.read_file fs path in
    let blen = Bytes.length b in
    if blen < Bytes.length old then
      problem "%s shrank mid-write: %d of %d bytes" path blen (Bytes.length old) :: acc
    else if blen > Bytes.length expect then
      problem "%s has impossible size %d (writing toward %d)" path blen (Bytes.length expect)
      :: acc
    else begin
      let bad = ref None in
      for i = blen - 1 downto 0 do
        let got = Bytes.get b i in
        let was = if i < Bytes.length old then Some (Bytes.get old i) else None in
        let target = Bytes.get expect i in
        let ok =
          got = target || Some got = was || (was = None && got = '\000')
        in
        if not ok then bad := Some i
      done;
      match !bad with
      | Some i -> problem "%s byte %d is neither old nor new nor zero" path i :: acc
      | None -> acc
    end
  end

let check_dir fs ~path acc =
  match Fs.readdir fs path with
  | _ -> acc
  | exception Fs_types.Fs_error m -> problem "directory %s unreadable: %s" path m :: acc

let touched (op : Gen.op) =
  match op with
  | Creat { path; _ } | Append { path; _ } | Overwrite { path; _ } | Unlink path -> [ path ]
  | Rename { src; dst } -> [ src; dst ]
  | Mkdir _ | Vista_txn _ | Sync -> []

let check_vista fs ~ledger ~in_flight_seed ~committed acc =
  if not (Fs.exists fs ledger) then problem "vista store %s vanished" ledger :: acc
  else begin
    let rolled_back = Vista.recover fs ~path:ledger in
    ignore (rolled_back : int);
    let store = Vista.open_existing fs ~path:ledger in
    let b = Vista.read store ~offset:0 ~len:ledger_size in
    let states =
      committed :: (match in_flight_seed with Some s -> [ s ] | None -> [])
    in
    let acc =
      if List.exists (fun s -> Bytes.equal b (ledger_pattern s)) states then acc
      else
        problem "vista store is neither the last committed state nor the in-flight one" :: acc
    in
    let undo = ledger ^ ".undo" in
    if Fs.exists fs undo && (Fs.stat fs undo).Fs.st_size <> 0 then
      problem "vista undo log not empty after recovery" :: acc
    else acc
  end

(* How far one program got when the crash hit. *)
type progress =
  | Completed of int  (** the first [n] ops ran to completion; the rest never started *)
  | Interrupted of int  (** ops [0..k-1] completed; op [k] was in flight *)

(* Audit one program's subtree against its model. Shared by the
   single-task [check] and the per-task legs of [check_tasks]; problems
   accumulate onto [acc] (reversed, like every checker here). *)
let check_core fs ~root:rt ~ledger ~ops ~progress acc =
  let arr = Array.of_list ops in
  let ncompleted, inflight =
    match progress with
    | Completed n -> (n, None)
    | Interrupted k -> (k, Some arr.(k))
  in
  let before = Model.create ~root:rt in
  for i = 0 to ncompleted - 1 do
    Model.apply before arr.(i)
  done;
  let after = Model.copy before in
  Option.iter (Model.apply after) inflight;
  let hot = match inflight with Some op -> touched op | None -> [] in
  (* Directories created by completed ops stay listable; an in-flight
     mkdir is atomic: absent, or present and listable. *)
  let acc = List.fold_left (fun acc d -> check_dir fs ~path:d acc) acc before.Model.dirs in
  let acc =
    match inflight with
    | Some (Gen.Mkdir d) when Fs.exists fs d -> check_dir fs ~path:d acc
    | _ -> acc
  in
  (* Files owned by completed ops and untouched by the in-flight one. *)
  let acc =
    List.fold_left
      (fun acc (path, expect) ->
        if List.mem path hot then acc else check_exact fs ~path ~expect acc)
      acc
      (Model.sorted_files before)
  in
  (* The in-flight op's own contract. *)
  let acc =
    match inflight with
    | None -> acc
    | Some op -> (
      match op with
      | Gen.Creat { path; _ } ->
        if not (Fs.exists fs path) then acc
        else
          check_inflight_write fs ~path ~old:Bytes.empty
            ~expect:(Hashtbl.find after.Model.files path) acc
      | Gen.Append { path; _ } | Gen.Overwrite { path; _ } ->
        check_inflight_write fs ~path
          ~old:(Hashtbl.find before.Model.files path)
          ~expect:(Hashtbl.find after.Model.files path)
          acc
      | Gen.Unlink path ->
        if not (Fs.exists fs path) then acc
        else check_exact fs ~path ~expect:(Hashtbl.find before.Model.files path) acc
      | Gen.Rename { src; dst } ->
        let expect = Hashtbl.find before.Model.files src in
        let s = Fs.exists fs src and d = Fs.exists fs dst in
        if not (s || d) then problem "rename lost %s: neither name exists" src :: acc
        else begin
          (* A cross-directory rename legitimately passes through a
             both-names state (insert before remove). A same-directory one
             is a single shadow-wrapped block rewrite ([Fs.rename]; no
             generated tree fills a directory block), so it owes exactly
             one name. Whichever name exists must carry the full old
             contents. *)
          let acc =
            if s && d && Filename.dirname src = Filename.dirname dst then
              problem "rename intermediate state exposed: both %s and %s exist" src dst :: acc
            else acc
          in
          let acc = if s then check_exact fs ~path:src ~expect acc else acc in
          if d then check_exact fs ~path:dst ~expect acc else acc
        end
      | Gen.Mkdir _ | Gen.Vista_txn _ | Gen.Sync -> acc)
  in
  let in_flight_seed =
    match inflight with Some (Gen.Vista_txn { seed }) -> Some seed | _ -> None
  in
  let committed = Option.value before.Model.vista ~default:ledger_setup_seed in
  check_vista fs ~ledger ~in_flight_seed ~committed acc

(* Audit the recovered file system against the model. [ops] is the whole
   program; [in_flight] the index of the op the crash interrupted. *)
let check fs ~ops ~in_flight =
  (* Bystander planted before the program ran: must never move. *)
  let acc =
    check_exact fs ~path:keep_path ~expect:(Pattern.fill ~seed:keep_seed ~len:keep_len) []
  in
  List.rev (check_core fs ~root ~ledger:ledger_path ~ops ~progress:(Interrupted in_flight) acc)

(* The cold-recovery contract: the crash is recovered WITHOUT a warm
   reboot — the memory image is lost, fsck repairs the committed disk
   state, and only what a durability barrier pushed out is owed. Find
   the last completed Sync; files fully established before it and
   untouched by any later (completed or in-flight) op must read back
   with their exact contents. Leniency everywhere the disk's tear model
   can legitimately bite: a torn metadata sector can make fsck free an
   inode or truncate a directory, so a missing file or a size mismatch
   is forgiven. What is NEVER forgiven is a size-correct file with wrong
   bytes — metadata durable, data not — which is exactly how a
   write-behind pipeline that reorders around the sync barrier fails. *)
let check_cold fs ~ops ~in_flight =
  let arr = Array.of_list ops in
  let last_sync = ref (-1) in
  for i = 0 to min (in_flight - 1) (Array.length arr - 1) do
    if arr.(i) = Gen.Sync then last_sync := i
  done;
  if !last_sync < 0 then []
  else begin
    let model = Model.create ~root in
    for i = 0 to !last_sync - 1 do
      Model.apply model arr.(i)
    done;
    let dirty = Hashtbl.create 16 in
    for i = !last_sync + 1 to min in_flight (Array.length arr - 1) do
      List.iter (fun p -> Hashtbl.replace dirty p ()) (touched arr.(i))
    done;
    let audit acc path expect =
      if Hashtbl.mem dirty path then acc
      else
        match Fs.read_file fs path with
        | b ->
          if Bytes.length b <> Bytes.length expect || Bytes.equal b expect then acc
          else problem "%s: synced contents corrupted after cold recovery" path :: acc
        | exception Fs_types.Fs_error _ -> acc
    in
    (* The bystander predates every op and no generated op touches it, so
       a completed sync owes its bytes too — and its setup-time blocks are
       exactly what an out-of-order pipeline tends to hold back (they are
       the oldest staged segments). *)
    let acc = audit [] keep_path (Pattern.fill ~seed:keep_seed ~len:keep_len) in
    List.fold_left
      (fun acc (path, expect) -> audit acc path expect)
      acc (Model.sorted_files model)
    |> List.rev
  end

(* The multi-task audit: the shared bystander once, then each task's
   subtree against its own model and progress. Problems are tagged with
   the owning task ("t0: ...") so a report attributes every violation. *)
let check_tasks fs ~progs ~progress =
  let acc =
    ref
      (check_exact fs ~path:keep_path ~expect:(Pattern.fill ~seed:keep_seed ~len:keep_len) [])
  in
  Array.iteri
    (fun i ops ->
      let sub =
        check_core fs ~root:(task_root i) ~ledger:(task_ledger i) ~ops ~progress:progress.(i) []
      in
      let tag = Printf.sprintf "t%d: " i in
      List.iter (fun p -> acc := (tag ^ p) :: !acc) (List.rev sub))
    progs;
  List.rev !acc
