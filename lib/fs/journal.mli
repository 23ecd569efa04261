(** Metadata write-ahead log — the AdvFS model of Table 2.

    AdvFS "reduces the penalty of metadata updates by writing metadata
    sequentially to a log" (§4). Records are appended with asynchronous
    writes; because the log is contiguous, consecutive appends pay transfer
    time only (no seek), which is the whole point. At recovery the log is
    replayed into the metadata sectors it shadows. *)

type t

val create : disk:Rio_disk.Disk.t -> start_sector:int -> sectors:int -> t

val append : t -> sector:int -> bytes -> unit
(** Log "these bytes belong at [sector]". Records are staged and pushed as
    one sequential asynchronous write per 64 KB group (group commit,
    Hagmann87). When the log fills, a checkpoint is forced: the caller's
    [on_checkpoint] callback (set below) must flush real metadata, after
    which the log resets. *)

val flush_group : t -> unit
(** Push any staged records now (fsync-path and update-daemon hook). *)

val set_on_checkpoint : t -> (unit -> unit) -> unit

val set_on_event : t -> (label:string -> unit) -> unit
(** Observer for group-commit ordering points: each {!flush_group} that
    actually writes announces a ["wb-commit journal s<sector> x<count>"]
    label just before handing the group to the backend. The crash-schedule
    checker wires this into {!Hooks.t.wb_event} to crash inside the
    window. *)

val checkpoint : t -> unit
(** Flush callback + reset the log head (also called by the update
    daemon). *)

val replay : disk:Rio_disk.Disk.t -> start_sector:int -> sectors:int -> int
(** Scan the log on the (post-crash) disk and apply every complete,
    checksummed record to its home sector. Returns the number of records
    applied. *)

(** {1 World-template rewind} *)

type state

val save : t -> state
(** Capture the log cursor, sequence number and staged group-commit bytes. *)

val restore : t -> state -> unit
(** Rewind to a captured {!save} of the same journal. *)
