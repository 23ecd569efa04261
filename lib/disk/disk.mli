(** The simulated disk: a sector store with an early-90s SCSI timing model.

    Requests are serviced FIFO against the {!Rio_sim.Engine} clock.
    Synchronous operations advance the clock until their completion (this is
    what makes write-through file systems slow); asynchronous writes occupy
    the disk in the background and only *commit to the platter* at their
    completion time — a crash before that point loses them, and tears the
    sector that was under the head (paper §2.1: disks share the
    being-written vulnerability). *)

type t

type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  seeks : int;
  busy_us : int;
}

val sector_bytes : int
(** 512. *)

val create :
  ?backend:Backend.kind ->
  engine:Rio_sim.Engine.t ->
  costs:Rio_sim.Costs.t ->
  sectors:int ->
  seed:int ->
  unit ->
  t
(** A zero-filled disk of [sectors] sectors, [?backend] defaulting to
    {!Backend.Scsi}. The seed drives SCSI torn-write garbage so crash
    tests replay deterministically (the NVMM tear model draws no
    randomness). *)

val backend : t -> Backend.kind

val capacity_sectors : t -> int

val engine : t -> Rio_sim.Engine.t

val set_on_complete : t -> (sector:int -> count:int -> write:bool -> unit) -> unit
(** Install a request-completion callback (default: ignore). It fires when
    a request's data is committed to the platter: at the completion event
    of an asynchronous write, and at the blocking return of a synchronous
    read or write. The crash-schedule checker crashes at each completion
    by raising from here; {!peek}/{!poke} never trigger it. *)

(** {1 Immediate (un-timed) access}

    Used by boot-time loading and by the test harness to inspect the
    platter; charges no simulated time and bypasses the queue. *)

val peek : t -> sector:int -> bytes
(** Copy of one sector's committed contents. *)

val poke : t -> sector:int -> bytes -> unit
(** Write one sector directly (length <= 512; padded with zeros). *)

(** {1 Timed access} *)

val read_sync : t -> sector:int -> count:int -> bytes
(** Read [count] contiguous sectors, advancing the clock by queueing plus
    service time. *)

val write_sync : t -> sector:int -> bytes -> unit
(** Write contiguous sectors synchronously (length padded to a whole number
    of sectors); the clock advances to completion — data is then
    crash-safe. *)

val write_sync_sparse : t -> sector:int -> count:int -> (int * bytes) list -> unit
(** [write_sync_sparse t ~sector ~count extents] is [write_sync] of a
    [count]-sector buffer that is zero except for [extents]: each
    [(off, data)] places whole sectors [data] at sector [sector + off].
    Identical simulated timing, trace event, statistics and completion
    callback; only the host-side commit differs — the zero gaps between
    extents are swept off the store's bitmap instead of being committed
    sector by sector. The warm-reboot swap dump uses this for the pages a
    memory snapshot cannot prove zero.
    @raise Invalid_argument unless the extents are sorted by offset,
    disjoint, whole sectors and inside [count]. *)

val write_async : t -> sector:int -> bytes -> unit
(** Queue a write and return immediately. The data commits to the platter
    when the disk gets to it; until then a crash discards it. *)

val drain : t -> unit
(** Advance the clock until all queued writes have committed ([sync]'s
    disk-side half). *)

val pending_writes : t -> int

val crash : t -> unit
(** Lose all uncommitted queued writes. The request under the head (if any)
    commits a prefix of its sectors and tears the sector it was writing. *)

val stats : t -> stats

val reset_stats : t -> unit

val check_invariant : t -> unit
(** Audit that the per-sector [nonzero] bitmap exactly matches the platter
    entries (see {!Store.check_invariant}).
    @raise Failure describing the first drifted sector found. *)

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep-copy the platter contents and remember the backend mechanism
    state (SCSI head position + tear-pattern PRNG, NVMM log tail) and
    statistics. The request queue must be empty: an async write still
    queued at freeze time would be silently lost by the rewind, so
    @raise Invalid_argument on a non-empty queue — callers drain first. *)

val restore : t -> checkpoint -> unit
(** Rewind the disk to a checkpoint, dropping any queued requests (their
    completion events are assumed cleared with the engine queue).
    @raise Invalid_argument if the checkpoint was taken on a different
    backend. *)

val pp_stats : Format.formatter -> stats -> unit
