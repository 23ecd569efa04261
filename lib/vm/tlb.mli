(** A direct-mapped TLB model.

    Translations are always re-checked against the page table (entries hold
    only the vpn), so the TLB exists to model *costs* and *shootdowns*:
    Rio's protection toggles must invalidate the entry for the page being
    opened or closed for writing, and the hit/miss counters feed the
    protection-overhead ablation. *)

type t

val create : entries:int -> t
(** [entries] must be a power of two (e.g. 64, matching small early-90s
    TLBs). *)

val access : t -> vpn:int -> unit
(** Record a translation for [vpn]; counts a hit if the slot already holds
    this vpn, else a miss plus a fill. *)

val shootdown : t -> vpn:int -> unit
(** Invalidate any entry for [vpn] (protection change). *)

val flush : t -> unit
(** Invalidate everything (context switch / reboot). *)

val hits : t -> int
val misses : t -> int
val shootdowns : t -> int

val reset_stats : t -> unit

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture slot contents and hit/miss/shootdown counters. *)

val restore : t -> checkpoint -> unit
