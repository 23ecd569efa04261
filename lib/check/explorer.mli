(** The crash-check catalogue and report format: the configurations
    under test, and how an exhaustive crash-schedule check reports.

    The explorer itself is {!Rio_fuzz.Fuzzer.explore}: it crashes each
    scenario — a fixed fuzz program over the fuzzer's world — at every
    boundary of its schedule and audits the recovery through the one
    crash contract, {!Rio_fuzz.Program.check}. This module names the
    specs every crash harness runs under ({!rio_prot} and its
    ablations), and holds the explorer's report types, renderers, JSON
    and pass/fail verdicts. Zero violations is a proof over the
    enumeration, not a statistical estimate; reports render
    byte-identically at any [domains]. *)

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
  ordinal : int;
      (** Which crash point (index into the boundary order); [-1] for the
          final-state audit of a multi-task count pass (no crash). *)
  label : string;  (** The boundary's stable label. *)
  problems : string list;  (** What the audit ({!Rio_fuzz.Program}) found. *)
  narrative : string list;  (** Forensics counterexample (re-run, traced). *)
}

type scenario_result = {
  slug : string;  (** The scenario's slug, ["<slug>#i<j>"] per interleaving. *)
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

val matrix_ok : matrix_entry list -> bool

val matrix_json : matrix_entry list -> Rio_util.Json.t
(** One entry per configuration: its verdict plus {!report_json}. *)

val render_matrix : matrix_entry list -> string
(** Verdict table plus, for each unsafe configuration that was caught,
    its first counterexample narrative. *)
