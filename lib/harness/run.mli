(** The unified harness Run API.

    Every harness entry point ({!Reliability.run}, {!Performance.run},
    {!Ablation.run}, {!Vista_experiment.run}, {!Rio_check}'s explorer, and
    {!Rio_fuzz}'s fuzzer) takes one {!config} record instead of a
    per-function spread of optional arguments. The fields mean the same
    thing everywhere:

    - [seed] — base seed; every run is a pure function of it.
    - [trials] — how many completed crash tests (or transactions, sweep
      steps, fuzz programs, ...) each cell needs. Exhaustive experiments
      ignore it.
    - [scale] — workload scale factor (1.0 = the paper's sizes).
    - [domains] — worker domains for {!Rio_parallel.Pool}; results are
      merged in seed order, so any value yields byte-identical output.
    - [backend] — the persistence backend worlds are built on
      ({!Rio_disk.Backend.Scsi} by default, or [Nvmm] for the
      battery-backed append-log tier). Campaigns that fix their own
      backends per spec (the check/fuzz matrices) ignore it.
    - [trace_dir] — when set, the flight recorder is on and per-trial
      traces land here; [None] means zero-overhead tracing-off.
    - [coverage] — when true, the campaign also accounts which slices of
      the crash space it exercised: check/fuzz runs carry a merged
      [Rio_cov.Cov.t] map in their reports (and the fuzzer's stratified
      sampler biases toward unhit boundary classes), and table1-style
      fault campaigns roll per-trial {!Rio_obs.Trace} metrics up even
      with tracing off (metrics-only recorders, no ring).
    - [obs_capacity] — trace-ring capacity override for recorders the
      campaign creates; out-of-range values are clamped into
      [\[0, Trace.max_capacity\]] (see {!obs_warnings}).
    - [progress] — per-cell progress callback (wrapped in a mutex sink
      when [domains > 1]). *)

type config = {
  seed : int;
  trials : int;
  scale : float;
  domains : int;
  backend : Rio_disk.Backend.kind;
  trace_dir : string option;
  coverage : bool;
  obs_capacity : int option;
  progress : Progress.t -> unit;
}

val default : config
(** [seed 1; trials 50; scale 1.0; domains 1; backend Scsi;
    trace_dir None; coverage false; obs_capacity None; progress ignore].
    Build variations with functional update:
    [{ Run.default with seed = 7; domains = 4 }]. *)

(** {1 Observability knob} *)

val obs_capacity : config -> int
(** The sanitized trace-ring capacity ({!Rio_obs.Trace.default_capacity}
    when unset, else clamped into [\[0, Trace.max_capacity\]]). *)

val obs_warnings : config -> string list
(** A human-readable description of the clamp {!obs_capacity} applied —
    empty when the config was in range. CLIs print it on stderr. *)

val recorder : config -> unit -> Rio_obs.Trace.t
(** A fresh live recorder sized by {!obs_capacity} — what campaigns use
    for per-trial recorders when [trace_dir] (or a counterexample
    replay) wants events. *)

val progress_sink : config -> Progress.t -> unit
(** The config's progress callback, wrapped in {!Rio_parallel.Pool.sink}
    when [domains > 1] so worker domains may call it concurrently. *)

val reporter : config -> total:int -> (label:string -> detail:string -> unit)
(** A ready-made per-cell completion reporter: counts completions with an
    atomic (globally monotonic at any [domains]) and forwards to the
    progress sink. *)
