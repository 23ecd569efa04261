(** Fuzz programs: executing {!Rio_workload.Script.Gen} op sequences and
    auditing their post-crash contracts — the one crash contract every
    harness checks.

    The fuzzer runs {e random} programs against the boundary probe; the
    explorer ({!Fuzzer.explore}) crashes {e fixed} ones — its scenarios —
    at every boundary. Both go through this module: a fixed setup (a
    bystander file and a Vista store planted under [/fuzz]), an executor
    that issues each op the way real programs do (chunked store windows),
    and the recovery audit that derives from {!Rio_workload.Script.Gen.Model}
    what each op owes after a crash:

    - completed ops: their whole effect, exactly;
    - the in-flight op: atomic-or-absent metadata, prefix-durable data
      (unwritten tail bytes may read back zero, never garbage; overwritten
      windows read old-or-new per byte); a rename keeps at least one name
      with the full contents, and exactly one when source and destination
      share a directory;
    - everything else (the bystander, other files, directories): exact;
    - the Vista store: exactly the last committed transaction, or the
      in-flight one (old-or-new), with an empty undo log after
      {!Rio_txn.Vista.recover}. *)

val gen_spec : Rio_workload.Script.Gen.spec
(** The generator spec the fuzzer uses (rooted at [/fuzz]). *)

type world = { fs : Rio_fs.Fs.t; store : Rio_txn.Vista.t }

val setup : Rio_fs.Fs.t -> world
(** Plant the root directory, the bystander file, and the Vista store
    (one committed transaction). Run before arming the probe. *)

val exec : world -> Rio_workload.Script.Gen.op -> unit
(** Execute one op. Raises {!Rio_fs.Fs_types.Fs_error} when the op is
    invalid against the current tree (shrunk sub-programs only; generated
    programs are valid by construction). *)

val check : Rio_fs.Fs.t -> ops:Rio_workload.Script.Gen.op list -> in_flight:int -> string list
(** Audit a recovered file system against the model of [ops], where the
    crash interrupted [ops.(in_flight)]. Returns human-readable problems;
    [[]] means every contract held. Runs {!Rio_txn.Vista.recover} as part
    of the audit (the store check needs a recovered store). *)

val check_cold :
  Rio_fs.Fs.t -> ops:Rio_workload.Script.Gen.op list -> in_flight:int -> string list
(** The cold-recovery contract: the crash was recovered {e without} a warm
    reboot (memory lost, fsck + remount only), so only data a completed
    [Sync] barrier pushed out is owed. Files fully established before the
    last completed sync and untouched by later ops must read back exact.
    Lenient where the backend's tear model can legitimately bite (missing
    file, size mismatch); a size-correct file with wrong bytes — metadata
    durable, data not — is a violation. [[]] when no sync completed. *)

(** {1 The multi-task world}

    Each task owns a disjoint subtree [/fuzz/t<i>] with its own Vista
    ledger, so every task's expected state stays exact under any
    interleaving; what the tasks share — and what the interleaving
    fuzzer stresses — is the machinery underneath the namespace: block
    caches, allocation bitmaps, shared inode sectors, the Rio registry,
    and the shadow page. *)

val task_root : int -> string
(** [/fuzz/t<i>] — task [i]'s subtree. *)

val task_gen_spec : int -> Rio_workload.Script.Gen.spec
(** Generator spec for task [i] (rooted at {!task_root}[ i]). *)

type tworld = { tfs : Rio_fs.Fs.t; stores : Rio_txn.Vista.t array }

val setup_tasks : Rio_fs.Fs.t -> tasks:int -> tworld
(** Plant the root, the shared bystander file, and one subtree + Vista
    store per task. Run before arming the probe. *)

val exec_task :
  Rio_task.Sched.t ->
  locking:bool ->
  task:Rio_task.Task.t ->
  tworld ->
  store:Rio_txn.Vista.t ->
  Rio_workload.Script.Gen.op ->
  unit
(** Execute one op as [task] through {!Rio_task.Sched.syscall}: paths
    made cwd-relative (the fiber chdirs into its subtree), fds routed
    through the task's descriptor table, and — when [locking] — mutating
    calls hold the ownership lock (a Vista transaction holds it across
    the whole transaction). [locking:false] is the lost-update ablation. *)

(** How far one task's program got when the crash hit. *)
type progress =
  | Completed of int
      (** the first [n] ops ran to completion; the rest never started *)
  | Interrupted of int  (** ops [0..k-1] completed; op [k] was in flight *)

val check_tasks :
  Rio_fs.Fs.t ->
  progs:Rio_workload.Script.Gen.op list array ->
  progress:progress array ->
  string list
(** Audit a recovered multi-task file system: the shared bystander once,
    then each task's subtree against its own model and {!progress}. Any
    task caught mid-op is [Interrupted] (the crasher, and bystanders whose
    op the scheduler had suspended); tasks between ops are [Completed].
    Problems are tagged ["t<i>: "] with the owning task. *)
