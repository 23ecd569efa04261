(** File-system consistency check and repair.

    Runs against the committed (post-crash) disk image before remount: after
    the registry-driven metadata restore in Rio's warm reboot (§2.2, "so
    that the file system is intact before being checked for consistency by
    fsck"), and directly after the crash for the disk-based baselines.

    Repairs mirror classic fsck: undecodable inodes are freed, out-of-range
    and doubly-claimed block pointers are cleared, corrupt directory blocks
    are truncated, entries to dead inodes are dropped, unreachable inodes
    are freed, and the allocation bitmaps are rebuilt from the surviving
    inodes. *)

type report = {
  repairs : string list;  (** One line per repair, deterministic order. *)
  unrecoverable : bool;
      (** The superblock itself was unusable; the volume is lost. *)
}

val run : disk:Rio_disk.Disk.t -> report

val clean : report -> bool
(** No repairs and recoverable. *)
