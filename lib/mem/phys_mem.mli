(** Simulated physical memory.

    One flat byte array divided into 8 KB pages (the Digital Unix page size
    the paper's registry is keyed to). Physical addresses are byte offsets.

    Crash semantics are the heart of Rio: [reset] models a warm reboot (the
    machine resets but DRAM keeps its contents, as the DEC Alpha allows,
    paper §5) and is a no-op on the data; [power_cycle] models a cold boot
    and scrubs everything. [dump] / [restore_dump] support the warm-reboot
    crash dump to the swap partition (§2.2).

    The write path additionally maintains a per-page monotonic version
    counter and a dirty bitmap, and feeds copy-on-write {!snapshot}s: the
    fast data path keys its decoded-instruction and checksum caches on
    page versions, sweeps only dirty pages, and captures crash images in
    O(pages dirtied) instead of O(memory). *)

type t

type paddr = int
(** A physical byte address. *)

val page_size : int
(** 8192 bytes. *)

val create : bytes_total:int -> t
(** [create ~bytes_total] makes zeroed memory; the size is rounded up to a
    whole number of pages. The backing buffer may be recycled from an
    earlier {!retire} of the same size. *)

val retire : t -> unit
(** End-of-trial teardown: re-zero the dirty pages (O(dirty)) and park the
    backing buffer for reuse by the next same-size [create]. The memory
    must not be used afterwards. Raises [Invalid_argument] if a snapshot
    is still active. *)

val size : t -> int
(** Total bytes. *)

val page_count : t -> int

val page_base : int -> paddr
(** [page_base pfn] is the first address of physical frame [pfn]. *)

val pfn_of_addr : paddr -> int
(** Physical frame number containing an address. *)

val in_range : t -> paddr -> len:int -> bool
(** Whether [\[addr, addr+len)] lies inside memory. *)

(** {1 Access}

    All accessors raise [Invalid_argument] on out-of-range addresses —
    callers (the MMU) are expected to have validated addresses; the kernel
    model maps such violations to machine checks. *)

val read_u8 : t -> paddr -> int
val write_u8 : t -> paddr -> int -> unit

val read_u32 : t -> paddr -> int
(** Little-endian, result in [\[0, 2^32)]. *)

val write_u32 : t -> paddr -> int -> unit

val read_u64 : t -> paddr -> int
(** Little-endian, truncated to OCaml's 63-bit int (addresses and kernel
    integers in this model all fit). *)

val write_u64 : t -> paddr -> int -> unit

val blit_in : t -> paddr -> bytes -> unit
(** Copy bytes into memory at an address. *)

val blit_from : t -> paddr -> bytes -> pos:int -> len:int -> unit
(** [blit_from t addr src ~pos ~len] copies [src\[pos, pos+len)] into
    memory at [addr] without the intermediate [Bytes.sub] that
    [blit_in] callers would need. *)

val blit_out : t -> paddr -> len:int -> bytes
(** Copy a range of memory out (allocates). *)

val blit_into : t -> paddr -> bytes -> pos:int -> len:int -> unit
(** [blit_into t addr dst ~pos ~len] copies memory [\[addr, addr+len)]
    into [dst] at [pos] — the non-allocating [blit_out]. *)

val blit_within : t -> src:paddr -> dst:paddr -> len:int -> unit
(** memmove semantics within simulated memory. *)

val fill : t -> paddr -> len:int -> char -> unit

val checksum_range : t -> paddr -> len:int -> int
(** CRC-32 of the range, used by the Rio checksum guard. Single-page
    ranges are memoized on (addr, len, page version), so re-verifying an
    unchanged page is O(1). *)

(** {1 Page versions and the dirty bitmap}

    Every mutation bumps the version of each page it touches. Versions are
    never reset — a [power_cycle] bumps them too — so (page, version) is a
    sound cache key for page contents, and version 0 means the page still
    holds its created zeroes. *)

val page_version : t -> int -> int
(** Mutation counter of frame [pfn]. *)

val is_dirty : t -> int -> bool
(** Whether frame [pfn] has ever been written. *)

val dirty_count : t -> int
(** Number of dirty pages. *)

val iter_dirty : t -> (int -> unit) -> unit
(** Apply to each dirty frame number in ascending order. *)

(** {1 Fault-injection hooks} *)

val flip_bit : t -> paddr -> bit:int -> unit
(** Flip bit [bit] (0-7) of the byte at [addr]. *)

(** {1 Crash and reboot semantics} *)

val reset : t -> unit
(** Warm reset: contents survive (no-op on data). *)

val power_cycle : t -> unit
(** Cold boot: all bytes zeroed (and all pages marked dirty — their
    contents changed). *)

val dump : t -> bytes
(** A full copy of memory — the §2.2 crash dump taken early in the warm
    reboot, before VM initialization can touch anything. *)

val restore_dump : t -> bytes -> unit
(** Overwrite memory from a dump of the same size. *)

(** {1 Copy-on-write snapshots}

    A snapshot freezes the current contents in O(1): subsequent writes
    save the 8 KB pre-image of each page they first touch. Reading
    through the snapshot serves saved pages from the pre-images and
    untouched pages from live memory; {!restore} writes the pre-images
    back, returning memory to its snapshot-time state in O(pages dirtied
    since the snapshot). Snapshots of the same memory may overlap in
    time; each is independent. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the current contents. *)

val release : t -> snapshot -> unit
(** Stop tracking writes for this snapshot (its saved pages remain
    readable but no longer grow). Restoring a released snapshot is a
    programming error. *)

val restore : t -> snapshot -> unit
(** Write the pre-images back: memory returns to its snapshot-time
    contents. The snapshot is released in the process. *)

val restore_keep : t -> snapshot -> int
(** Write the pre-images back like {!restore}, but keep the snapshot
    active with an emptied save table — the same frozen contents can be
    restored again and again (the world-template trial loop). Returns
    the number of pages restored (the dirt since the last restore). *)

val snap_saved_pages : snapshot -> int
(** How many pages the copy-on-write machinery has saved so far. *)

val snap_blit_into : t -> snapshot -> paddr -> bytes -> pos:int -> len:int -> unit
(** Read a range as it was at snapshot time into a caller buffer. *)

val snap_blit_out : t -> snapshot -> paddr -> len:int -> bytes
(** Allocating variant of {!snap_blit_into}. *)

val snap_page_is_zero : t -> snapshot -> int -> bool
(** Whether frame [pfn] was provably all-zero at snapshot time: it has
    never been written at all (so it was neither written before the
    snapshot nor saved since). O(1), no table probe. *)

val snap_checksum_range : t -> snapshot -> paddr -> len:int -> int
(** CRC-32 of a range as it was at snapshot time; hits the single-page
    memo when the range is untouched since the snapshot. *)

val unsafe_raw : t -> bytes
(** The underlying storage, exposed for the interpreted CPU's hot path and
    for checksumming; mutating it bypasses the version/dirty/snapshot
    bookkeeping — callers must not write through it while a snapshot is
    active or a page version is cached. *)

