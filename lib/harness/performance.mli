(** The Table 2 experiment: run cp+rm, Sdet, and Andrew on each of the
    eight file-system configurations and report simulated seconds.

    Each (configuration, workload) pair gets a fresh 128 MB machine (the
    paper's DEC 3000/600) and a freshly formatted disk. Timing follows the
    paper's method: elapsed time of the command, including disk traffic it
    leaves queued (the next command inherits the queue, as cp's writes slow
    rm down). *)

val paper_machine : seed:int -> Rio_kernel.Kernel.config
(** The paper's measurement machine (its DEC 3000/600): 128 MB of memory
    over a 320 MB disk. Every Table 2 cell boots it, and so do the cp+rm
    ablations ({!Ablation.protection_overhead} and the disk-speed
    sensitivity). *)

type configuration = {
  label : string;  (** Matches {!Paper_data.table2} labels. *)
  policy : Rio_fs.Fs.policy;
  rio_protection : bool option;  (** [Some p] mounts a Rio cache. *)
}

val configurations : configuration list
(** The paper's eight, in Table 2 order. *)

type measurement = {
  config_label : string;
  cp_s : float;
  rm_s : float;
  sdet_s : float;
  andrew_s : float;
}

val run : ?only:string list -> Run.config -> measurement list
(** The {!Run.config} fields map as: [scale] shrinks the workloads (1.0 =
    the paper's 40 MB cp+rm tree, 5 Sdet scripts, full Andrew), [seed]
    seeds every machine, [backend] picks the persistence tier every
    machine is built on, and [domains]/[progress] as documented on
    {!Run.config} ([trials] and [trace_dir] are unused here). [only]
    filters configuration labels. Results stay in Table 2 row order and
    are byte-identical to the serial run at any [domains]. *)

val measure_workload :
  ?backend:Rio_disk.Backend.kind ->
  configuration ->
  scale:float ->
  seed:int ->
  [ `Cp_rm | `Sdet | `Andrew ] ->
  float * float
(** One (configuration, workload) cell; returns (primary seconds, secondary
    seconds) — (cp, rm) for cp+rm, (total, 0) otherwise. *)

val to_table : measurement list -> Rio_util.Table.t
(** Rendered like Table 2. *)

val comparison_table : measurement list -> Rio_util.Table.t
(** Paper-vs-measured, including the headline speedup ratios (Rio vs
    write-through 4-22x, vs UFS 2-14x, vs UFS-delayed 1-3x). *)

val speedup : measurement list -> num:string -> den:string -> float list
(** Per-workload runtime ratios between two configurations
    ([num] slower / [den] faster). *)
