(** The file system: a Unix-like FS over the simulated disk and memory,
    parameterized by the write policies of Table 2.

    Metadata (superblock, bitmaps, inodes, directory blocks) is cached in
    the buffer-cache region; regular file data in UBC pages drawn from the
    shared page pool. The cached page bytes are authoritative — after a
    crash, recovery re-reads everything from disk (plus, for Rio, from the
    memory image via the warm reboot).

    Every operation charges simulated time: system-call overhead, pathname
    lookup, memory copies, and whatever disk traffic the policy incurs. *)

(** Table 2's file systems, by their {!policy_name} labels. What each one
    does is its {!rules} record; DESIGN §4 tabulates all eight. *)
type policy =
  | Mfs  (** memory-fs *)
  | Ufs_default  (** ufs *)
  | Ufs_delayed  (** ufs-delayed *)
  | Wt_close  (** wt-close *)
  | Wt_write  (** wt-write *)
  | Advfs  (** advfs *)
  | Rio_policy  (** rio *)
  | Rio_idle  (** rio-idle, the §2.3 future-work variant *)

val policy_name : policy -> string

val all_policies : policy list

(** {1 Durability rules} *)

(** How a metadata update reaches the disk. *)
type meta_write =
  | Delayed  (** With the next write-back of its block. *)
  | Sync
      (** Inode and directory updates are written synchronously; bitmaps,
          the superblock, and size and time bumps are delayed. *)
  | Journal
      (** Inode, directory and superblock updates are appended to the
          log; the blocks follow at the log's checkpoint. *)

(** When a file's data is flushed. *)
type flush =
  | Never  (** Only by the update daemon, [sync], or cache pressure. *)
  | Async
      (** Queued without waiting: at a write, after 64 KB of sequential
          writes or at a non-sequential one; at a close, every time. *)
  | Sync  (** Data, then inode, on the platter before the call returns. *)

type rules = private {
  disk : bool;  (** Backed by a disk; false only for memory-fs. *)
  meta : meta_write;  (** Inode, directory and superblock updates. *)
  on_write : flush;  (** Data flush at [write]/[pwrite]. *)
  on_close : flush;  (** Data flush at [close]. *)
  daemon : bool;
      (** The update daemon runs, and [sync] flushes both caches and
          drains the disk. *)
  trusts_memory : bool;
      (** Memory is durable: [fsync] returns at once, a panic writes no
          dirty buffer back, and Table 2's timed run starts warm. *)
}
(** [truncate] forces the file when [on_write] or [on_close] is [Sync]. *)

val rules : policy -> rules
(** UFS is [{disk; meta = Sync; on_write = Async; on_close = Async;
    daemon; trusts_memory = false}]; every other policy is a record
    update of it or of Rio (DESIGN §4). *)

(** {1 Formatting and mounting} *)

type geometry = {
  total_sectors : int;
  inode_count : int;
  swap_sectors : int;
  journal_sectors : int;
}

val default_geometry : disk_sectors:int -> mem_bytes:int -> geometry
(** Swap sized to hold all of physical memory (for the warm-reboot dump),
    1 MB of journal, 1 inode per data block. *)

val mkfs : disk:Rio_disk.Disk.t -> geometry -> unit
(** Format: superblock, empty bitmaps, free inode table, empty root
    directory. Untimed (happens before the experiment clock starts). *)

type t

val mount :
  engine:Rio_sim.Engine.t ->
  costs:Rio_sim.Costs.t ->
  mem:Rio_mem.Phys_mem.t ->
  meta_alloc:Rio_mem.Page_alloc.t ->
  pool_alloc:Rio_mem.Page_alloc.t ->
  disk:Rio_disk.Disk.t ->
  policy:policy ->
  hooks:Hooks.t ->
  wb_unordered:bool ->
  t
(** Read the superblock and start the update daemon (for the policies that
    have one). Raises {!Fs_types.Fs_error} on a bad superblock.

    Every disk-backed policy routes the daemon's and [sync]'s asynchronous
    write-backs through a {!Write_behind} pipeline (batching, coalescing,
    group commit), whose ordering points fire {!Hooks.t.wb_event}.
    [wb_unordered:true] plants the pipeline's ordering bug — see
    {!Write_behind.create}; pass [false] everywhere outside the fuzzer's
    ablation matrix. *)

val unmount : t -> unit
(** Flush everything, drain the disk, mark the volume clean, stop the
    daemon. *)

val crash : t -> unit
(** The system just crashed: lose queued disk writes (tearing the in-flight
    sector), stop the daemon. Memory is left exactly as it was — that is
    Rio's whole point. The [t] must not be used afterwards; recovery
    remounts. *)

(** {1 Introspection} *)

val engine : t -> Rio_sim.Engine.t
val policy : t -> policy
val meta_cache : t -> Block_cache.t
val data_cache : t -> Block_cache.t

(** {1 Files} *)

type fd

type stat = {
  st_ino : int;
  st_ftype : Fs_types.ftype;
  st_size : int;
  st_nlink : int;
  st_mtime : int;
}

val create : t -> string -> fd
(** Create (or truncate) a regular file and open it. *)

val open_file : t -> string -> fd
(** Open an existing regular file. *)

val close : t -> fd -> unit

val read : t -> fd -> len:int -> bytes
(** Read at the cursor, advancing it; short reads at EOF. *)

val write : t -> fd -> bytes -> unit
(** Write at the cursor, advancing it. *)

val pread : t -> fd -> offset:int -> len:int -> bytes
(** Raises {!Fs_types.Fs_error} on a negative offset, like [pwrite]. *)

val pwrite : t -> fd -> offset:int -> bytes -> unit

val seek : t -> fd -> int -> unit

val fsync : t -> fd -> unit

val fd_size : t -> fd -> int

(** {1 Namespace} *)

val mkdir : t -> string -> unit
val rmdir : t -> string -> unit
(** Directory must be empty. *)

val link : t -> string -> string -> unit
(** [link t existing path] creates a hard link: a second directory entry
    for the same inode. Not allowed on directories. *)

val unlink : t -> string -> unit
(** Drops one link; the inode and its blocks are freed when the last link
    goes. *)

val rename : t -> string -> string -> unit
(** An existing regular-file target is replaced. Within one directory the
    removal and insertion collapse into a single atomic metadata update
    whenever the entry's block can absorb the name change; across
    directories the new entry is inserted before the old one is removed,
    so a crash never makes the file unreachable. *)

val readdir : t -> string -> string list
(** Sorted names. *)

val stat : t -> string -> stat
(** Follows symbolic links. *)

val lstat : t -> string -> stat
(** Does not follow a final symbolic link. *)

val exists : t -> string -> bool

val sync : t -> unit
(** Durability barrier where {!rules}' [daemon] holds: flush both caches
    through the write-behind pipeline and drain the disk. An immediate
    no-op under Rio (§2.3) and MFS; rio-idle honors it so idle-trickled
    write-behind is checkable. *)

val symlink : t -> target:string -> string -> unit
(** Create a symbolic link at the path pointing at [target] (absolute or
    relative to the link's directory). Stored through the cache like the
    paper's symlinks (§2). *)

val readlink : t -> string -> string

val truncate : t -> string -> int -> unit
(** Shrink (freeing blocks, zeroing the boundary tail) or extend (creating
    a hole) a regular file. *)

(** {1 Convenience} *)

val read_file : t -> string -> bytes
val write_file : t -> string -> bytes -> unit
(** create + write + close. *)

type fs_stats = {
  blocks_total : int;
  blocks_free : int;
  inodes_total : int;
  inodes_free : int;
}

val statfs : t -> fs_stats
(** Block and inode usage from the allocation bitmaps. *)

val free_counts : t -> int * int
(** [(free inodes, free blocks)] as the allocator's counters track them:
    seeded by {!mount} from the bitmaps, maintained by every allocation
    and release since. *)

(** {1 Warm-reboot support} *)

val write_by_ino : t -> ino:int -> offset:int -> bytes -> unit
(** Restore file-page contents by inode number without touching metadata:
    clamped to the inode's current size; holes are skipped. Used by Rio's
    user-level UBC restore sweep (§2.2). *)

val update_daemon_flush : t -> int
(** Run one update-daemon pass now; returns blocks flushed. *)

val remount_cold : t -> unit
(** Flush everything and drop both caches — equivalent to unmount + mount.
    Used to measure cold-cache workloads. *)

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture the host-side file-system state: block-cache population,
    in-core inodes, descriptor table, allocator hints/counters, journal
    cursor, and update-daemon due time. Page and disk contents are
    covered by the memory snapshot and disk checkpoint. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint of the same mount. Call after the engine
    queue has been cleared and its clock rewound — a live update daemon
    is re-scheduled at its checkpointed absolute due time. *)

(** {1 The uniform syscall entry}

    One decoded representation of the syscall surface. The task scheduler
    and the workload interpreter dispatch through {!Syscall.run}, which
    executes a call with the per-op function of the same name above. *)

module Syscall : sig
  type call =
    | Creat of string
    | Open of string
    | Close of fd
    | Read of { fd : fd; len : int }
    | Write of { fd : fd; data : bytes }
    | Pread of { fd : fd; offset : int; len : int }
    | Pwrite of { fd : fd; offset : int; data : bytes }
    | Seek of fd * int
    | Fsync of fd
    | Mkdir of string
    | Rmdir of string
    | Link of { existing : string; path : string }
    | Unlink of string
    | Rename of { src : string; dst : string }
    | Readdir of string
    | Stat of string
    | Lstat of string
    | Exists of string
    | Symlink of { target : string; path : string }
    | Readlink of string
    | Truncate of string * int
    | Read_file of string
    | Write_file of { path : string; data : bytes }
    | Sync

  type result =
    | Unit
    | Fd of fd
    | Data of bytes
    | Names of string list
    | Stat_r of stat
    | Bool of bool
    | Path of string

  val name : call -> string
  (** Stable short name ("creat", "pwrite", ...) for attribution. *)

  val mutates : call -> bool
  (** Whether the call can mutate shared file-system state. The task
      layer takes the ownership lock exactly for mutating calls. *)

  val run : t -> call -> result
  (** Decode and execute. Raises {!Fs_types.Fs_error} like the per-op
      functions. *)

  (** Result projections; raise {!Fs_types.Fs_error} on a shape mismatch. *)

  val fd_exn : result -> fd
  val data_exn : result -> bytes
  val names_exn : result -> string list
  val stat_exn : result -> stat
  val bool_exn : result -> bool
  val path_exn : result -> string
end
