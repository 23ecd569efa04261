(** The asynchronous write-behind pipeline between the block caches and
    the persistence backend: batching, adjacent-sector coalescing, group
    commit. The update daemon and [Fs.sync] stage dirty blocks here
    (via [Block_cache.flush_dirty ?via]) and then {!flush} the batch.

    Every ordering point fires {!Hooks.t.wb_event}:
    - ["wb-queue s<sector> x<count>"] — a dirty block staged into the queue;
    - ["wb-flush s<sector> x<count>"] — a coalesced segment issued to the
      backend as an asynchronous write;
    - ["wb-commit batch n<segments>"] — the batch hand-off completed.

    A crash between "wb-queue" and its "wb-flush" loses the staged block
    (it never reached the backend); a crash after "wb-flush" leaves the
    segment to the backend's own tear model. *)

type t

val create : disk:Rio_disk.Disk.t -> hooks:Hooks.t -> unordered:bool -> t
(** [unordered] plants the write-behind ordering bug: each flush of two
    or more segments holds its oldest segment back for the next batch, so
    a sync that triggered the flush returns with that segment not yet —
    possibly never — durable. For the fuzzer's ablation matrix only. *)

val stage : t -> sector:int -> bytes -> unit
(** Queue one block's payload (whole sectors, ownership transferred). *)

val flush : t -> int
(** Coalesce and issue everything staged as asynchronous backend writes;
    returns the number of segments issued. Durability additionally needs
    [Disk.drain] (sync path) — flush alone only hands the batch off. *)

(** {1 World-template rewind} *)

type state

val save : t -> state

val restore : t -> state -> unit
