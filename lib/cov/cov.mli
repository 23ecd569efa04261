(** Crash-space coverage accounting for check and fuzz campaigns.

    The checker proves contracts over every boundary of a few scripted
    scenarios; the fuzzer samples random programs. Neither says, by
    itself, which slices of the crash space a whole {e campaign} actually
    exercised — whether 10^6 trials ever landed a crash in a shadow-flip
    meta window during a rename, say. This module is the accounting
    layer: each trial contributes a compact signature (which boundary
    classes its schedule enumerated, and — if it crashed — the cell it
    crashed in), signatures merge deterministically in seed order, and
    the merged map renders as a heatmap ({!Heatmap}) and as machine
    JSON.

    A {e cell} of the crash space is the tuple

    - boundary {e label class} — the stable prefix of a
      {!Rio_check.Boundary} label before its first space ("store-torn",
      "registry-update", "vista-commit-start", ...);
    - {e operation kind} — what was in flight at the crash (a fuzz op
      kind like "rename" or an explorer scenario slug like "vista");
    - {e task role} — whose crash it was in a multi-task schedule:
      ["solo"], ["crasher"], or ["bystander"];
    - {e crash-ordinal bucket} — the boundary's ordinal in its schedule,
      power-of-two bucketed, so "early in the op" and "deep inside a
      long store sequence" are distinguishable without unbounded axes.

    Merging is pure bookkeeping (sums), so any merge order that is
    itself deterministic — such as {!Rio_parallel.Pool}'s seed-order
    result lists — yields byte-identical reports at any [-j N]. *)

(** What the audited recovery said about one crash trial. *)
type outcome =
  | Survived  (** All contracts held after warm reboot. *)
  | Violated  (** At least one contract was broken. *)
  | Unreached  (** The trip ordinal was never reached on replay. *)

val label_class : string -> string
(** The boundary label's class: the prefix before the first space
    (["store-torn p0x4000/lo"] -> ["store-torn"]); the whole label when
    it has no space (["vista-commit-start"]). The same classing the
    fuzzer's stratified sampler uses. *)

val buckets : int
(** Number of crash-ordinal buckets (power-of-two ranges, last open). *)

val bucket_of_ordinal : int -> int
(** [0 -> 0], [1 -> 1], [2..3 -> 2], [4..7 -> 3], ... capped at
    [buckets - 1]. *)

val bucket_name : int -> string
(** ["0"], ["1"], ["2-3"], ..., ["256+"]. *)

type t
(** A mutable coverage accumulator. One per trial (as a signature) or
    one per campaign (as the merged map) — same type, merged with
    {!merge}. *)

val create : unit -> t

(** {1 Recording} *)

val note_schedule : t -> labels:string list -> unit
(** Credit one trial's full boundary schedule: counts one schedule,
    tallies every label's class as enumerated. The denominator of
    coverage. *)

val record : t -> ?task:string -> cls:string -> op:string -> ordinal:int -> outcome -> unit
(** Credit one crash trial: the cell [(cls, op, task, bucket ordinal)]
    gains one tally of [outcome]. The numerator of coverage. [task]
    (default ["solo"]) is the task role axis: ["solo"] for single-task
    campaigns, ["crasher"] for the task whose op tripped the boundary,
    ["bystander"] for another task caught with an op in flight. *)

val add_shrink : t -> int -> unit
(** Credit shrink-budget usage (candidate replays one counterexample
    cost). *)

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold [t]'s tallies into [into]. Sums only, so any deterministic
    fold order gives a deterministic result. *)

val merge_list : t list -> t
(** A fresh accumulator holding the left-to-right merge of the list. *)

(** {1 Reading} *)

val schedules : t -> int
val crash_trials : t -> int
val violations : t -> int
val unreached : t -> int
val boundaries_enumerated : t -> int

val classes : t -> string list
(** Every label class seen (enumerated or crashed-in), sorted. *)

val ops : t -> string list
(** Every operation kind recorded, sorted. *)

val tasks : t -> string list
(** Every task role recorded, sorted (["solo"], or
    ["bystander"]/["crasher"] in multi-task campaigns). *)

val enumerated_of_class : t -> string -> int
(** Boundaries of this class enumerated across all schedules. *)

val crashed_of_class : t -> string -> int
val violated_of_class : t -> string -> int

val cell_count : t -> cls:string -> op:string -> bucket:int -> int
(** Crash trials recorded in one cell (all outcomes). *)

val cell_by_op : t -> cls:string -> op:string -> int
(** Crash trials for a (class, op kind) pair, summed over buckets. *)

val cell_by_bucket : t -> cls:string -> bucket:int -> int
(** Crash trials for a (class, bucket) pair, summed over op kinds. *)

val cell_by_task : t -> cls:string -> task:string -> int
(** Crash trials for a (class, task role) pair. *)

val unhit_classes : t -> string list
(** Classes that were enumerated in some schedule but never crashed
    into — the cells a campaign claims nothing about. Sorted. The
    fuzzer's feedback hook biases its stratified sampler toward these. *)

val to_json : t -> Rio_util.Json.t
(** Deterministic machine-readable map: totals, per-class tallies,
    every non-empty cell (sorted by class, op, bucket), and the unhit
    class list. Contains no wall-clock fields, so equal campaigns
    produce byte-identical documents at any [-j N]. *)
