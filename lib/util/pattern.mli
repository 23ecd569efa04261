(** Deterministic, cheap file-content patterns.

    Workloads need megabytes of file data whose every byte is predictable
    from a small seed — memTest reconstructs expected contents after a crash
    by regenerating them (§3.2). A multiplicative byte mix is far cheaper
    than running a PRNG per byte and just as checkable. *)

val fill : seed:int -> len:int -> bytes
(** [fill ~seed ~len]: byte [i] is a mix of [seed] and [i]. *)

val fill_at : seed:int -> offset:int -> len:int -> bytes
(** The slice [\[offset, offset+len)] of the infinite pattern stream for
    [seed] — so partial reads can be checked without materializing the whole
    file. [fill ~seed ~len = fill_at ~seed ~offset:0 ~len]. Both are
    memoized per domain and return a fresh copy the caller may mutate. *)

val fill_into : seed:int -> offset:int -> bytes -> pos:int -> len:int -> unit
(** [fill_into ~seed ~offset b ~pos ~len] writes the same slice as
    [fill_at ~seed ~offset ~len] into [b] at [pos], with no allocation and
    no memo — for writers that generate each chunk just before using it.
    Raises [Invalid_argument] if [\[pos, pos+len)] is not inside [b]. *)

val byte_at : seed:int -> int -> char
(** Single byte of the stream. *)
