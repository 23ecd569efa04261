(** The trial engine: one template, crash and recovery path for every
    crash-schedule harness.

    A trial is a pure function of (spec, seed, payload, trip). The engine
    rents the pristine world the spec describes, with a {!Boundary} probe
    attached and the harness's trip-independent payload planted; the
    harness runs its armed body; and if the probe tripped, the engine
    crashes the world, puts the captured image back, recovers (a warm
    reboot on the surviving memory, or fsck and a cold reboot on the disk
    alone, both through {!Rio_world.World}) and audits the recovered file
    system. Its only callers are the fuzzer's two attempts,
    {!Rio_fuzz.Fuzzer.run_attempt} (one program) and
    {!Rio_fuzz.Fuzzer.run_attempt_tasks} (one program per task); the
    fuzzer, its shrinkers and the exhaustive explorer all run through
    them, so they differ only in which programs they run and where they
    crash.

    Rentals come from one per-domain template cache: the first rental of a
    (payload kind, spec, seed, key) builds and freezes the world, every
    later one rewinds it in O(dirty pages). The cache holds one (spec,
    seed) at a time; renting for another empties it. Restores happen at
    rental {e start}, so an exception escaping one trial can never poison
    the next, and per-rental probe state (captures, the emit callback) is
    reset with them. Traced runs and the [--reference] mode
    ({!Rio_util.Fastpath}[ off]) skip the cache and build every world
    from scratch — same body, same audit. *)

(** The configuration under test: how to build the world, how its
    crashes are recovered, and what a matrix expects of it. *)
type spec = {
  label : string;
      (** Names the spec: the template cache keys on it (with [backend]
          and the seed), so two specs with one label must not differ in
          any other field but [backend]. *)
  protection : bool;  (** MMU write protection (orthogonal to atomicity). *)
  shadow : bool;  (** §2.3 shadow-paged metadata updates. *)
  registry : bool;  (** §2.2 registry maintenance. *)
  policy : Rio_fs.Fs.policy;  (** Mount policy (default [Rio_policy]). *)
  backend : Rio_disk.Backend.kind;  (** Persistence backend under the world. *)
  wb_unordered : bool;  (** Plant the write-behind ordering bug. *)
  cold : bool;
      (** Recover crashes {e cold} (fsck + remount, no warm reboot) and
          audit them against the sync-durability contract. Single-task
          fuzzer only: the explorer and the multi-task fuzzer raise
          [Invalid_argument] on a cold spec. *)
  expect_safe : bool;  (** What the matrix asserts about this config. *)
}

type 'p kind
(** A payload type: what a harness plants in the world before arming
    (the fuzz root, the bystander file, Vista stores). One value per payload
    type; it names the payload's template-cache slots and keeps them
    type-safe. *)

val kind : string -> 'p kind

type 'p t = {
  world : Rio_world.World.t;
  probe : Boundary.t;  (** Attached to the world's hooks and disk. *)
  payload : 'p;
  spec : spec;  (** The spec the world was built from: {!audit} recovers as it says. *)
}

val run :
  ?obs:Rio_obs.Trace.t ->
  spec:spec ->
  seed:int ->
  kind:'p kind ->
  key:string ->
  setup:(Rio_world.World.t -> 'p) ->
  ('p t -> 'a) ->
  'a
(** [run ~spec ~seed ~kind ~key ~setup body] rents a world and runs
    [body] on it. [setup] plants the payload, once per template: it must
    depend only on ([kind], [spec], [seed], [key]), and registers a
    {!Rio_world.World.on_restore} hook for any host state it owns. With a
    live [obs] (or with {!Rio_util.Fastpath} off) the world is built fresh,
    traced into [obs], and disposed when [body] returns or raises. *)

val armed : 'p t -> trip:int -> (unit -> unit) -> bool
(** Run [f] with the probe armed at [trip] ([-1] = count only); [true] if
    it crashed there ({!Boundary.Crash_here}). The probe is disarmed on
    every exit; any other exception propagates. *)

val audit : 'p t -> check:(Rio_fs.Fs.t -> string list) -> string list
(** The crash cycle, after {!armed} returned [true]: crash the file
    system, then recover the way the trial's spec says and run [check]
    on the remounted file system. Warm: restore the captured crash image
    over memory and warm-reboot on it. Cold: drop the image (memory is
    lost), fsck the disk, and cold-reboot unless fsck reports it
    unrecoverable; an unrecoverable or unmountable image audits clean
    (the cold contract forgives structural loss). A [check] that raises
    [Rio_fs.Fs_types.Fs_error] is reported as one problem. *)
