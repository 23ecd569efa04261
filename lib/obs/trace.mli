(** The flight recorder: typed trace events in a bounded ring buffer, plus
    a metrics registry (monotonic counters and sim-time histograms).

    The paper had to treat the crashed OS as a black box (footnote 2 —
    corruption could only be counted after recovery, never watched as it
    happened). The simulator interprets every kernel store, MMU check, and
    disk transfer, so each subsystem can narrate what it does into a
    per-trial recorder; after the trial, the ring holds the last
    [capacity] events — enough to reconstruct the fault → wild store →
    corruption chain.

    One recorder per trial. Trials are isolated (own engine, kernel, disk,
    PRNG), so recorders need no locking and campaigns stay deterministic
    at any [-j N]; per-trial artifacts are merged in seed order.

    {!null} is the default sink everywhere: a shared, permanently disabled
    recorder. Instrumentation points guard with {!enabled}, so when
    tracing is off the cost is one physical-equality branch. *)

(** Which layer emitted an event (the Chrome-trace "thread"). *)
type subsystem = Engine | Disk | Vm | Rio | Fault | Kernel | Fs | Harness

val subsystem_name : subsystem -> string

(** The event taxonomy. Spans carry their own [start_us]/[end_us] in
    simulated microseconds; instants use the record timestamp only. *)
type kind =
  | Dispatch of { due_us : int; end_us : int; queue_depth : int }
      (** Engine popped and ran one scheduled callback (span). *)
  | Clock of { advances : int }
      (** Periodic clock-advance counter sample (every 4096 advances). *)
  | Disk_request of {
      sector : int;
      sectors : int;
      write : bool;
      sync : bool;
      issued_us : int;
      done_us : int;
    }  (** One disk request, issue to completion (span). *)
  | Protection_trap of { paddr : int }
      (** MMU refused a store to a write-protected page. *)
  | Protection_toggle of { paddr : int; writable : bool }
      (** Rio flipped a PTE write bit (and shot down the TLB entry). *)
  | Fault_injected of { fault : string; site : string }
      (** The injector applied one fault instance at [site]. *)
  | Wild_store of { paddr : int; width : int; region : string }
      (** Post-injection store into a file-cache page the kernel does not
          own — direct corruption caught in the act. *)
  | Registry_update of { paddr : int; ino : int; size : int }
      (** Rio registered/updated a file-cache page in the registry. *)
  | Checksum_mismatch of { paddr : int; expected : int; actual : int }
      (** A registered buffer's content no longer matches its checksum. *)
  | Shadow_flip of { paddr : int; engaged : bool }
      (** Metadata shadow copy engaged (true) or atomically flipped back. *)
  | Activity of { name : string; start_us : int; end_us : int }
      (** One interpreted kernel routine ran (span). *)
  | Crash of { message : string; during : string }
  | Crash_flush of { data : int; meta : int }
      (** The non-Rio panic path pushed [data] + [meta] dirty buffers to
          disk while crashing — the propagation channel forensics uses to
          attribute corruption that reached the platter during the panic. *)
  | Phase of { name : string; start_us : int; end_us : int }
      (** A named span: warm-reboot steps (dump, registry, fsck, sweep). *)
  | Swap_dump of { dumped : int; truncated : int }
      (** The warm reboot's memory dump reached swap: [dumped] bytes
          written, [truncated] bytes that did not fit the swap partition. *)
  | Mark of string  (** Free-form instant annotation. *)

val kind_label : kind -> string
(** Stable lowercase tag ("disk_request", "wild_store", ...). *)

type event = { ts_us : int; sub : subsystem; kind : kind }

type t
(** A recorder: ring buffer + metrics registry + clock. *)

val null : t
(** The shared disabled recorder. {!emit} and every metric update on it
    are no-ops; {!enabled} is [false] only for this value. *)

val default_capacity : int
(** 65536 — what {!create} uses when no capacity is given. *)

val max_capacity : int
(** The largest ring a recorder will allocate (2^22 events); campaign
    config layers ({!Rio_harness.Run}) clamp requests into
    [\[0, max_capacity\]] and report the clamp. *)

val create : ?capacity:int -> unit -> t
(** A live recorder holding the most recent [capacity] (default
    {!default_capacity}) events. [capacity = 0] records no events
    (metrics only — the cheap way to roll campaign counters up without
    paying for a ring). *)

val enabled : t -> bool

val set_clock : t -> (unit -> int) -> unit
(** Install the simulated-time source (normally the engine's clock; done
    automatically by [Engine.create ~obs]). *)

val now : t -> int

val emit : t -> subsystem -> kind -> unit
(** Append an event stamped with the current simulated time. When the
    ring is full the oldest event is overwritten ({!dropped} counts). *)

val events : t -> event list
(** Retained events, oldest first. *)

val total : t -> int
(** Events ever emitted (retained + dropped). *)

val dropped : t -> int

val capacity : t -> int

(** {1 Metrics}

    Handles are resolved once (by name) at instrumentation-setup time so
    the per-update cost is a branch and an increment. Handles from {!null}
    are permanently dead. *)

type counter
type histogram

val counter : t -> string -> counter
(** Find-or-create a monotonic counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val histogram : t -> string -> histogram
(** Find-or-create a histogram of integer observations (typically
    simulated-time durations in microseconds). *)

val observe : histogram -> int -> unit
val histogram_values : histogram -> int array
(** Raw observations in arrival order. *)

val percentile : int array -> float -> float
(** Exact percentile of the observations, interpolated the same way as
    {!Rio_util.Stats.percentile}. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** Registration order. *)
  histograms : (string * int array) list;  (** Raw values, arrival order. *)
}

val snapshot : t -> snapshot

val merge_snapshots : snapshot list -> snapshot
(** Sum counters, concatenate histogram observations, preserving
    first-seen name order — merge per-trial snapshots in seed order for a
    deterministic campaign aggregate. *)

val snapshot_json : snapshot -> Rio_util.Json.t
(** Counters verbatim; histograms summarized (n, min, mean, p50, p90,
    p99, max). *)
