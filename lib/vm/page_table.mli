(** The kernel's page table.

    The simulated kernel runs identity-mapped: virtual page [n] maps to
    physical frame [n] when valid. What matters for Rio is not fancy address
    spaces but the per-page [valid] and [writable] bits — they are what turn
    wild stores into traps (paper §2.1). Each page's bits live in one flag
    byte, so creating, checkpointing and restoring a table is one
    allocation or one blit. *)

type t

val create : pages:int -> t
(** All entries valid and writable initially (a permissive monolithic
    kernel), identity-mapped. *)

val pages : t -> int

val valid_bit : int
(** Flag bit: the page is mapped. *)

val writable_bit : int
(** Flag bit: stores to the page are allowed. *)

val flags : t -> Bytes.t
(** The backing flag bytes, indexed by vpn — exposed so the translation
    fast path and the MMU checkpoint can read and blit them directly. Do
    not resize. *)

val set_valid : t -> vpn:int -> bool -> unit
val set_writable : t -> vpn:int -> bool -> unit
(** @raise Invalid_argument when [vpn] is outside the table. *)

val is_valid : t -> vpn:int -> bool
(** [false] also when out of range — an illegal address. *)

val is_writable : t -> vpn:int -> bool
(** [false] also when invalid or out of range. *)

val protected_count : t -> int
(** Number of valid, non-writable entries (for tests and reports). *)
