(** Shared file-system constants and basic types. *)

val block_bytes : int
(** 8192 — one file-system block is one physical page. *)

val sectors_per_block : int
(** 16. *)

val ndirect : int
(** Direct block pointers per inode (96 → 768 KB max file size; ample for
    the paper's workloads). *)

val name_max : int
(** Longest directory entry name (60). *)

val root_ino : int
(** 1. Inode 0 is reserved as "no inode". *)

type ftype = Regular | Directory | Symlink

type fid = {
  dev : int;
  ino : int;
}
(** The paper's file id: device number and inode number (§2.2). *)

type owner =
  | Meta  (** A metadata block: inodes, directories, bitmaps, superblock. *)
  | Data of { ino : int; offset : int }
      (** A regular file's data block and its position in the file. *)

exception Fs_error of string
(** Raised on structurally invalid on-disk/in-memory state (bad magic,
    corrupt directory entry, out-of-range block pointer) and on usage errors
    (no such file, not a directory, file exists). *)

val err : ('a, unit, string, 'b) format4 -> 'a
(** [err fmt ...] raises {!Fs_error}. *)
