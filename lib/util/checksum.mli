(** Block checksums used by the Rio corruption detector.

    The paper (§3.2) maintains a checksum of each memory block in the file
    cache; unintentional stores leave the checksum inconsistent. We provide
    CRC-32 (IEEE 802.3 polynomial, table-driven) as the primary detector and
    Fletcher-32 as a cheaper alternative for the cost ablation. *)

val crc32 : ?init:int -> bytes -> pos:int -> len:int -> int
(** [crc32 b ~pos ~len] is the CRC-32 of the slice. [init] continues a prior
    checksum (default the standard [0] seed, pre/post-inverted
    internally). Result fits in 32 bits. *)

val crc32_string : string -> int
(** CRC-32 of a whole string. *)

val crc32_raw : bytes -> pos:int -> len:int -> int
(** The raw CRC register after processing the slice from register 0 —
    no init or final inversion. Linear over GF(2): [crc32_raw] of the
    byte-wise xor of two equal-length slices is the xor of their raw
    CRCs. Building block for incremental checksum updates. *)

val shift_zeros : int -> zeros:int -> int
(** [shift_zeros c ~zeros] is the CRC register after feeding [zeros]
    zero bytes starting from register [c] (computed in O(log zeros)
    via the GF(2) matrix of the zero-byte step). Together with
    [crc32_raw]: if messages [M] and [M'] of equal length differ only
    in a range ending [m] bytes before the end, then
    [crc32 M' = crc32 M lxor shift_zeros (crc32_raw D) ~zeros:m]
    where [D] is the xor of the old and new range bytes. *)

val fletcher32 : bytes -> pos:int -> len:int -> int
(** Fletcher-32 over the slice, treating bytes as 8-bit words. *)
