(** The crash-schedule harnesses over fuzz programs: the randomized
    fuzzer, with counterexample shrinking, and the exhaustive explorer.

    Both run {!Program}s against the boundary probe and audit every
    crash through the one contract, {!Program.check} (or
    {!Program.check_tasks}). The fuzzer samples random op {e sequences}
    over a growing tree, with the crash at a random boundary of a random
    op (stratified by boundary class, so the rare metadata/registry/Vista
    boundaries get sampled as often as the plentiful data-store windows).
    Each trial is a pure function of (spec, seed, trial index): generate
    a program ({!Rio_workload.Script.Gen}), count its boundaries with a
    disarmed pass, pick one, re-run tripping there, warm-reboot, and
    audit. The explorer ({!explore}) instead crashes a few fixed programs
    — its scenarios — at {e every} boundary.

    A violating fuzz trial is then {e shrunk} — delta debugging over both
    axes: drop ops the failure does not need (re-validating every
    candidate by running it, remapping the crash ordinal into the
    in-flight op's shifted boundary range), and walk the crash ordinal
    down to the first failing boundary. The result is a minimal program +
    boundary pair, replayed once more with the flight recorder live so
    the report carries a {!Rio_obs.Forensics} narrative. A shrunk program
    can be explored as a scenario unchanged.

    Trials shard across domains via {!Rio_parallel.Pool} and merge in
    trial order, so every report is byte-identical at any [domains]. *)

exception Invalid_program
(** A (shrunk) sub-program referenced a file an earlier removed op would
    have created. Never escapes {!run}; candidates that raise it are
    simply not failures. *)

(** {1 Single attempts (exposed for tests)} *)

type attempt = {
  boundaries : int;
  labels : string list;  (** Boundary labels in ordinal order. *)
  op_starts : int array;
      (** [op_starts.(k)] = first boundary ordinal of op [k]; length
          [ops + 1], the last entry closing the final op's range. *)
  crashed_during : int option;
  tripped : string option;
  problems : string list;
}

val run_attempt :
  ?obs:Rio_obs.Trace.t ->
  spec:Rio_check.Explorer.spec ->
  seed:int ->
  ops:Rio_workload.Script.Gen.op list ->
  trip:int ->
  unit ->
  attempt
(** One {!Rio_check.Trial} cycle: rent the world, run [ops], crash at
    boundary [trip] ([-1] = count only), recover (warm, or cold for a
    [cold] spec) and audit. Raises {!Invalid_program} if [ops] is not
    executable in order. *)

(** {1 The fuzz run} *)

type counterexample = {
  trial : int;
  original_ops : int;
  original_ordinal : int;
  ops : Rio_workload.Script.Gen.op list;  (** Shrunk program. *)
  ordinal : int;  (** Shrunk crash boundary. *)
  in_flight : int;  (** Index of the op the crash interrupts. *)
  label : string;  (** The boundary's stable label. *)
  problems : string list;
  narrative : string list;  (** Forensics replay of the minimum. *)
  shrink_attempts : int;  (** Candidate runs the shrinker spent. *)
}

type report = {
  spec : Rio_check.Explorer.spec;
  seed : int;
  trials : int;
  max_ops : int;
  boundaries : int;  (** Summed over trials' full schedules. *)
  violations : int;  (** Trials whose crash broke a contract. *)
  counterexamples : counterexample list;
      (** The first [shrink_limit] violations (trial order), shrunk. *)
  coverage : Rio_cov.Cov.t option;
      (** The campaign's crash-space coverage map ([config.coverage]).
          With coverage on, trials run in fixed rounds and the still-unhit
          boundary classes steer the next round's stratified crash pick —
          deterministic feedback, byte-identical at any [domains]. *)
}

val default_max_ops : int

val run :
  ?spec:Rio_check.Explorer.spec ->
  ?max_ops:int ->
  ?shrink_limit:int ->
  Rio_harness.Run.config ->
  report
(** [config.trials] random programs of [1..max_ops] ops each, seeded from
    [config.seed]; [scale] and [trace_dir] are unused. [config.coverage]
    turns on the coverage map and the unhit-class feedback loop. *)

val render : report -> string
(** Deterministic plain text: a summary head plus one block per shrunk
    counterexample (program listing, crash boundary, problems, trace). *)

val report_json : report -> Rio_util.Json.t
(** Machine-readable report (spec, totals, shrunk counterexamples,
    coverage when collected). Deterministic: byte-identical at any
    [domains]. *)

(** {1 The ablation matrix} *)

val max_repro_ops : int
(** A caught ablation only counts if some counterexample shrank to at most
    this many ops (6) — the catch must come with a readable repro. *)

val report_ok : report -> bool
(** The pass/fail verdict: a safe spec ([expect_safe]) fuzzed clean; an
    unsafe one was caught {e and} some counterexample shrank to at most
    {!max_repro_ops} ops. *)

type matrix_entry = { entry_report : report; ok : bool (** {!report_ok}. *) }

val run_matrix :
  ?specs:Rio_check.Explorer.spec list ->
  ?max_ops:int ->
  ?shrink_limit:int ->
  Rio_harness.Run.config ->
  matrix_entry list
(** Fuzz each spec with the same config. Safe specs must fuzz clean;
    unsafe specs must be caught {e and} shrunk (see {!max_repro_ops}). *)

val matrix_ok : matrix_entry list -> bool

val matrix_json : matrix_entry list -> Rio_util.Json.t
(** One entry per configuration: its verdict plus {!report_json}. *)

val render_matrix : matrix_entry list -> string

(** {1 Multi-task fuzzing: interleaving x crash-point schedules}

    The same trial cycle, with the programs run as {!Rio_task.Sched}
    fibers: one program per task over a disjoint subtree, every boundary
    a preemption point (and every scheduler lock event a boundary), the
    crash tripped at a stratified pick over the {e interleaved} schedule,
    and the audit per task ({!Program.check_tasks} — completed ops exact,
    the in-flight op under its atomicity contract, bystanders exact).
    Trials are pure functions of (spec, locking, seed, trial index), so
    reports stay byte-identical at any [domains]. [locking:false] is the
    planted lost-update ablation: mutating syscalls skip the ownership
    lock, and the interleaving fuzzer must catch the torn metadata it
    produces. *)

type tattempt = {
  t_boundaries : int;
  t_labels : string list;
  t_bounds : (int * int) array array;
      (** [t_bounds.(i).(k)] = boundary-ordinal range [\[start, stop)] of
          task [i]'s op [k]; [-1] where the op never started/finished. *)
  t_progress : Program.progress array;
  t_crasher : (int * int) option;  (** [(task, op)] whose boundary tripped. *)
  t_raised : (int * int * string) option;
      (** A fiber raised [Fs_error] mid-run (an ablation symptom). *)
  t_tripped : string option;
  t_problems : string list;
}

val run_attempt_tasks :
  ?obs:Rio_obs.Trace.t ->
  spec:Rio_check.Explorer.spec ->
  locking:bool ->
  seed:int ->
  sched_seed:int ->
  progs:Rio_workload.Script.Gen.op list array ->
  trip:int ->
  unit ->
  tattempt
(** One {!Rio_check.Trial} cycle: rent the world, run one program per
    task under the seeded scheduler, crash at boundary [trip] ([-1] =
    count only, with a final-state audit), warm-recover and audit per
    task. Raises {!Invalid_program} when some program is not
    self-contained, and [Invalid_argument] on a [cold] spec: the per-task
    audit checks warm recovery only. *)

val total_ops : Rio_workload.Script.Gen.op list array -> int
val nonempty_tasks : Rio_workload.Script.Gen.op list array -> int

type tcounterexample = {
  tc_trial : int;
  tc_original_ops : int;
  tc_progs : Rio_workload.Script.Gen.op list array;
  tc_sched_seed : int;
  tc_ordinal : int option;
  tc_crasher : (int * int) option;
  tc_label : string option;
  tc_problems : string list;
  tc_shrink_attempts : int;
}

type treport = {
  tr_spec : Rio_check.Explorer.spec;
  tr_locking : bool;
  tr_seed : int;
  tr_tasks : int;
  tr_trials : int;
  tr_max_ops : int;
  tr_boundaries : int;
  tr_violations : int;
  tr_counterexamples : tcounterexample list;
  tr_coverage : Rio_cov.Cov.t option;
}

val run_tasks :
  ?spec:Rio_check.Explorer.spec ->
  ?locking:bool ->
  ?max_ops:int ->
  ?shrink_limit:int ->
  tasks:int ->
  Rio_harness.Run.config ->
  treport
(** [config.trials] multi-task trials ([tasks] programs of
    [1..max_ops] ops each), seeded from [config.seed]. [config.coverage]
    turns on the coverage map — now with the task-role axis
    (crasher/bystander) — and the unhit-class feedback loop. Raises
    [Invalid_argument] on a [cold] spec (see {!run_attempt_tasks}). *)

val render_tasks : treport -> string
(** Deterministic plain text, byte-identical at any [domains]. *)

val treport_json : treport -> Rio_util.Json.t

val treport_ok : treport -> bool
(** The multi-task pass/fail verdict: with locking the campaign fuzzed
    clean; without it (the lost-update ablation) it was caught and some
    counterexample shrank to at most {!max_repro_ops} total ops over at
    most two non-empty tasks. *)

(** {1 The exhaustive explorer}

    The paper's reliability numbers come from {e sampling} crash times
    (§3.1). The explorer instead counts a scenario's crash boundaries
    once, then re-runs it once per boundary — identical seed, fresh
    world — crashing exactly there, recovering, and auditing. Every
    reachable crash schedule of the program is checked. *)

type body =
  | One of Rio_workload.Script.Gen.op list
      (** One program over the fuzzer's world, run by {!run_attempt}. *)
  | Tasks of Rio_workload.Script.Gen.op list array
      (** One program per task (over [/fuzz/t<i>]), run by
          {!run_attempt_tasks} with locking on. *)

type scenario = { slug : string; body : body }

val scenarios : scenario list
(** creat, write, rename, vista, sync, two-task — in report order. *)

val scenario : string -> scenario
(** Look up by slug; raises [Invalid_argument] on an unknown one. *)

val explore :
  ?spec:Rio_check.Explorer.spec ->
  ?scenarios:scenario list ->
  ?interleave:int ->
  Rio_harness.Run.config ->
  Rio_check.Explorer.report
(** Explore every crash point of every scenario (default {!scenarios}).
    Uses [config.seed], [config.domains] and [config.coverage]; [trials]
    and [scale] are ignored — the schedule is exhaustive, not sampled.
    Each violation is replayed with the flight recorder live for its
    narrative. A multi-task scenario contributes [interleave] jobs, one
    per deterministic scheduler seed, reported under ["<slug>#i<j>"]:
    the cross product of task interleavings and crash points (the
    interleavings are sampled by seed); a failed final-state audit of a
    job's count pass is a violation at ordinal [-1]. Coverage cells from
    those jobs carry the ["crasher"] task role when the crash landed
    inside a task's op ([solo] otherwise). Default [interleave] [0]: no
    multi-task jobs. Raises [Invalid_argument] on a negative
    [interleave], on a selection that leaves no job (a multi-task
    scenario alone at [interleave] [0]), and on a [cold] spec: the
    scenarios audit warm recovery only. *)

val explore_matrix :
  ?specs:Rio_check.Explorer.spec list ->
  ?scenarios:scenario list ->
  Rio_harness.Run.config ->
  Rio_check.Explorer.matrix_entry list
(** {!explore} each spec (default {!Rio_check.Explorer.matrix_specs});
    each entry's verdict is {!Rio_check.Explorer.report_ok}. *)
