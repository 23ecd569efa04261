(** A write-back cache of file-system blocks over physical pages.

    Instantiated twice, as on the paper's platform (§2): once over the
    buffer-cache region for metadata (the traditional Unix buffer cache) and
    once over the shared page pool for regular file data (the UBC). Each
    cached block occupies one physical page; the page's bytes are the
    authoritative copy while cached, which is exactly why crashes can
    corrupt them and why Rio must protect them.

    Eviction is LRU and writes dirty victims synchronously first — the
    "only when the cache overflows" write that even Rio performs (§2.3). *)

type entry = {
  blkno : int;  (** Data-area block number, or a negative meta key. *)
  paddr : int;  (** Backing physical page. *)
  mutable dirty : bool;
  mutable owner : Fs_types.owner;
  mutable valid : int;  (** Meaningful bytes in the page. *)
  mutable tick : int;  (** LRU clock. *)
  mutable pinned : bool;  (** Exempt from eviction (superblock, bitmaps). *)
}

type fill = Zero | From_disk

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  fills : int;
}

type t

val create :
  name:string ->
  mem:Rio_mem.Phys_mem.t ->
  disk:Rio_disk.Disk.t ->
  alloc:Rio_mem.Page_alloc.t ->
  hooks:Hooks.t ->
  sector_of_blkno:(int -> int) ->
  backed:bool ->
  t
(** [backed:false] (the Memory File System) never touches the disk: dirty
    pages are not written back and eviction of dirty pages reports
    out-of-space instead. *)

val get : t -> blkno:int -> owner:Fs_types.owner -> fill:fill -> entry
(** Find or install the block. A miss allocates a page (evicting if
    necessary) and fills it per [fill]. Raises {!Fs_types.Fs_error} when no
    page can be obtained. *)

val lookup : t -> blkno:int -> entry option

val credit_hits : t -> entry -> int -> unit
(** [credit_hits t entry k] accounts [k] further {!get} hits on [entry]
    by its current owner — the hit count and LRU clock a caller that
    looked the block up [k] more times would have left — without the
    lookups. *)

val mark_dirty : t -> entry -> unit

val set_valid : t -> entry -> int -> unit
(** Update the meaningful-byte count (re-announces the mapping). *)

val write_back : ?via:(sector:int -> bytes -> unit) -> t -> entry -> sync:bool -> unit
(** Write the page to its disk block ([sync] advances the clock to
    completion; async queues it). Clears [dirty]. No-op when unbacked.
    When [via] is given and [sync] is false the payload is handed to it
    instead of {!Rio_disk.Disk.write_async} — the write-behind pipeline's
    staging entry point. *)

val flush_dirty :
  ?via:(sector:int -> bytes -> unit) -> t -> sync:bool -> ?only:(entry -> bool) -> unit -> int
(** Write back all dirty (matching) entries in block order; returns how
    many. Returns without scanning the table when {!dirty_count} is zero.
    [via] as in {!write_back}: asynchronous write-backs are staged into
    the write-behind pipeline instead of issued directly. *)

val invalidate : t -> blkno:int -> unit
(** Drop a block (deleted file), freeing its page without write-back. *)

val drop_all : t -> unit
(** Discard everything (unmount without sync — crash path). *)

val iter : t -> (entry -> unit) -> unit

val dirty_count : t -> int
(** Dirty entries currently in the table. O(1): maintained as entries are
    dirtied, written back, and removed. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep-copy the host-side cache state (population, dirty bits, LRU
    ticks, statistics). Page contents rewind with the memory snapshot. *)

val restore : t -> checkpoint -> unit
(** Rewind the cache to a checkpoint of the same instance. *)
