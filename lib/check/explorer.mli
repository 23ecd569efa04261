(** The crash-schedule explorer: checking instead of sampling.

    The paper's reliability numbers come from {e sampling} crash times
    (§3.1). The explorer instead runs each {!Scenario} once to {e count}
    its crash boundaries, then re-runs it once per boundary — identical
    seed, fresh world — crashing exactly there, warm-rebooting (memory
    restore + fsck), and auditing the recovered file system. Every
    reachable crash schedule of the scripted operation is checked; zero
    violations is a proof over the enumeration, not a statistical
    estimate.

    Trials shard across domains via {!Rio_parallel.Pool} and merge in
    boundary order, so {!render} output is byte-identical at any
    [domains]. Violations are re-run with the flight recorder live and
    reported as minimal counterexample narratives
    ({!Rio_obs.Forensics}). *)

(** The Rio configuration under test ({!Trial.spec}). The two unsafe
    configurations exist to validate the checker itself: a checker that
    cannot catch a known hole proves nothing by finding no violations. *)
type spec = Trial.spec = {
  label : string;
  protection : bool;
  shadow : bool;
  registry : bool;
  policy : Rio_fs.Fs.policy;
  backend : Rio_disk.Backend.kind;
  wb_unordered : bool;
  cold : bool;
  expect_safe : bool;
}

val rio_prot : spec
val rio_noprot : spec
val shadow_off : spec
val registry_off : spec

val rio_idle : spec
(** Rio with idle write-back ([Fs.Rio_idle]): the update daemon and sync
    route through the write-behind pipeline, so its wb-queue/wb-flush/
    wb-commit orderings become crash points. Safe under warm reboot. *)

val wb_cold : spec
(** [rio_idle] audited with cold recovery: synced data must survive on
    disk alone. Safe — the ordered pipeline honors the barrier. *)

val wb_order : spec
(** [wb_cold] with the planted write-behind ordering bug
    ([wb_unordered]): known-unsafe, the fuzz matrix must catch it. *)

val matrix_specs : spec list
(** The four classic ablations plus {!rio_idle}, in report order. *)

val fuzz_specs : spec list
(** {!matrix_specs} plus the cold-recovery pair ({!wb_cold},
    {!wb_order}) — the fuzzer's default matrix. *)

type violation = {
  ordinal : int;  (** Which crash point (index into the boundary order). *)
  label : string;  (** The boundary's stable label. *)
  problems : string list;  (** What {!Scenario.check} found. *)
  narrative : string list;  (** Forensics counterexample (re-run, traced). *)
}

type scenario_result = {
  slug : string;
  name : string;
  crash_points : int;
  violations : violation list;
}

type report = {
  spec : spec;
  scenarios : scenario_result list;
  coverage : Rio_cov.Cov.t option;
      (** The campaign's crash-space coverage map ([config.coverage]):
          every schedule noted, every trip recorded as a
          (class, scenario, ordinal-bucket) cell. Deterministic at any
          [domains]. *)
}

val run :
  ?spec:spec -> ?only:string list -> ?interleave:int -> Rio_harness.Run.config -> report
(** Explore every crash point of every scenario (or just the [only]
    slugs). Uses [config.seed], [config.domains], and [config.coverage];
    [trials] and [scale] are ignored — the schedule is exhaustive, not
    sampled. Raises [Invalid_argument] on an unknown slug, and on a
    [cold] spec: the scenario checks audit warm recovery only.

    With [interleave = n > 0], each multi-task scenario
    ({!Scenario.multis}) additionally contributes [n] jobs — one per
    deterministic scheduler seed, reported under the slug
    ["<slug>#i<j>"] — exploring the cross product of task interleavings
    and crash points. Crash-point enumeration within a job is exhaustive
    as always; the interleavings are sampled by seed. Coverage cells from
    multi jobs carry the ["crasher"] task role when the crash landed
    inside a task's syscall ([solo] otherwise), feeding the task axis of
    {!Rio_cov.Heatmap}. Default [0]: no multi jobs, output unchanged. *)

val crash_points : report -> int
val violation_count : report -> int

val render : report -> string
(** Deterministic plain-text report: per-scenario table plus one
    counterexample block per violation. *)

val spec_line : spec -> string
(** One-line description of a configuration ("rio-prot (protection on,
    shadow on, registry on, backend scsi)", plus ", cold recovery" for a
    cold spec) — the header of every check and fuzz report. *)

val spec_json : spec -> Rio_util.Json.t
(** The configuration under test, as JSON (shared with the fuzzer). *)

val report_json : report -> Rio_util.Json.t
(** Machine-readable verdicts (spec, per-scenario crash points and
    counterexamples, totals, coverage when collected). Deterministic:
    byte-identical at any [domains]. *)

val report_ok : report -> bool
(** The pass/fail verdict: a safe spec ([expect_safe]) found no
    violation, an unsafe one found at least one. *)

type matrix_entry = {
  entry_report : report;
  ok : bool;  (** {!report_ok}. *)
}

val run_matrix :
  ?specs:spec list -> ?only:string list -> Rio_harness.Run.config -> matrix_entry list

val matrix_ok : matrix_entry list -> bool

val matrix_json : matrix_entry list -> Rio_util.Json.t
(** One entry per configuration: its verdict plus {!report_json}. *)

val render_matrix : matrix_entry list -> string
(** Verdict table plus, for each unsafe configuration that was caught,
    its first counterexample narrative. *)
