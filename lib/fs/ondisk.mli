(** On-disk serialization: superblock, inodes, directory blocks.

    Everything is parsed defensively — after a crash these bytes may have
    been corrupted by a wild kernel store, and a parse failure is itself a
    corruption signal the reliability harness records. *)

(** {1 Superblock} *)

type superblock = {
  total_sectors : int;
  inode_count : int;
  swap_start : int;  (** First swap sector. *)
  swap_sectors : int;
  journal_start : int;
  journal_sectors : int;
  ibitmap_start : int;  (** Inode allocation bitmap sectors. *)
  ibitmap_sectors : int;
  bbitmap_start : int;  (** Data-block allocation bitmap sectors. *)
  bbitmap_sectors : int;
  itable_start : int;  (** One sector per inode. *)
  data_start : int;  (** First data sector; block-aligned region. *)
  data_blocks : int;
  clean : bool;  (** Unmounted cleanly (fsck fast-path). *)
}

val superblock_sector : int
(** 0. *)

val write_superblock : superblock -> bytes
(** Serialize into one 512-byte sector. *)

val read_superblock : bytes -> superblock
(** Raises {!Fs_types.Fs_error} on bad magic or nonsensical geometry. *)

val data_sector : superblock -> int -> int
(** [data_sector sb blkno] is the first sector of data block [blkno]. *)

(** {1 Inodes} *)

type inode = {
  mutable ftype : Fs_types.ftype;
  mutable nlink : int;
  mutable size : int;
  mutable mtime : int;  (** Simulated µs. *)
  blocks : int array;
      (** [ndirect] entries; 0 = hole, else data block number + 1. *)
}

val empty_inode : Fs_types.ftype -> inode

val inode_bytes : int
(** 512 — one sector per inode. *)

val inode_sector : superblock -> int -> int
(** Sector holding inode [ino]. *)

val write_inode : inode -> bytes -> pos:int -> unit
(** Serialize at [pos] in a buffer. *)

val read_inode : bytes -> pos:int -> inode
(** Raises {!Fs_types.Fs_error} on an invalid type tag or out-of-range
    fields. *)

val inode_is_free : bytes -> pos:int -> bool
(** Whether the slot holds a freed inode (type tag 0). *)

val free_inode_image : unit -> bytes
(** The 512-byte image of a free inode slot. *)

(** {1 Directory blocks}

    A directory's data is a sequence of blocks, each packed with entries
    [(ino: u32, namelen: u8, name)] and terminated by a 0 inode. *)

val dir_pack : (string * int) list -> bytes
(** Pack entries into one block. Raises {!Fs_types.Fs_error} if they do not
    fit. *)

val dir_unpack : bytes -> pos:int -> len:int -> (string * int) list
(** Parse a directory block slice. Raises {!Fs_types.Fs_error} on corrupt
    entries (zero-length or over-long names, non-ASCII garbage). *)

val dir_entry_bytes : string -> int
(** Packed size of one entry. *)

val dir_block_capacity : int
(** Usable payload bytes per directory block. *)
