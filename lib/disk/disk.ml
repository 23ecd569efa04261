module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Trace = Rio_obs.Trace

let sector_bytes = Store.sector_bytes

type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  seeks : int;
  busy_us : int;
}

type request = {
  req_sector : int;
  data : bytes; (* whole sectors *)
  start_time : int;
  completion_time : int;
  handle : Engine.handle;
}

(* The backend mechanism: timing + tear semantics. Everything else — the
   sector store, the FIFO queue, statistics, trace events, completion
   callbacks, checkpoint/restore — is shared by this front-end, so the two
   models stay comparable request-for-request. *)
type mech =
  | Scsi_m of Scsi.t
  | Nvmm_m of Nvmm.t

type t = {
  engine : Engine.t;
  obs : Trace.t;
  c_requests : Trace.counter;
  h_latency : Trace.histogram;
  costs : Costs.t;
  store : Store.t;
  mech : mech;
  mutable busy_until : int;
  mutable pending : request list; (* FIFO order: oldest first *)
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable busy_us : int;
  mutable on_complete : sector:int -> count:int -> write:bool -> unit;
}

let no_complete ~sector:(_ : int) ~count:(_ : int) ~write:(_ : bool) = ()

let create ?(backend = Backend.Scsi) ~engine ~costs ~sectors ~seed () =
  let obs = Engine.obs engine in
  {
    engine;
    obs;
    c_requests = Trace.counter obs "disk.requests";
    h_latency = Trace.histogram obs "disk.request_latency_us";
    costs;
    store = Store.create ~sectors;
    mech =
      (match backend with
      | Backend.Scsi -> Scsi_m (Scsi.create ~seed)
      | Backend.Nvmm -> Nvmm_m (Nvmm.create ()));
    busy_until = 0;
    pending = [];
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    seeks = 0;
    busy_us = 0;
    on_complete = no_complete;
  }

let backend t =
  match t.mech with
  | Scsi_m _ -> Backend.Scsi
  | Nvmm_m _ -> Backend.Nvmm

let set_on_complete t f = t.on_complete <- f

let capacity_sectors t = Store.capacity t.store

let engine t = t.engine

let check_range t sector count =
  if sector < 0 || count < 0 || sector + count > Store.capacity t.store then
    invalid_arg
      (Printf.sprintf "Disk: sectors [%d,+%d) outside capacity %d" sector count
         (Store.capacity t.store))

let peek t ~sector =
  check_range t sector 1;
  Store.peek t.store ~sector

let check_invariant t = Store.check_invariant t.store

let commit_sector t sector (b : bytes) =
  assert (Bytes.length b = sector_bytes);
  Store.commit_from t.store ~sector b ~pos:0

let poke t ~sector b =
  check_range t sector 1;
  if Bytes.length b > sector_bytes then invalid_arg "Disk.poke: more than one sector";
  let padded = Bytes.make sector_bytes '\000' in
  Bytes.blit b 0 padded 0 (Bytes.length b);
  commit_sector t sector padded

let pad_to_sectors data =
  let n = (Bytes.length data + sector_bytes - 1) / sector_bytes in
  if Bytes.length data = n * sector_bytes then (data, n)
  else begin
    let padded = Bytes.make (n * sector_bytes) '\000' in
    Bytes.blit data 0 padded 0 (Bytes.length data);
    (padded, n)
  end

let service_time t sector count =
  match t.mech with
  | Scsi_m m ->
    let service, seeked = Scsi.service m ~costs:t.costs ~sector ~count in
    if seeked then t.seeks <- t.seeks + 1;
    service
  | Nvmm_m m -> Nvmm.service m ~sector ~count

(* The torn sector's contents when a crash catches a request mid-write:
   each backend documents its own model. *)
let torn_sector t ~sector ~data ~pos =
  let old_sector = Store.peek t.store ~sector in
  match t.mech with
  | Scsi_m m -> Scsi.tear m ~old_sector ~data ~pos
  | Nvmm_m m -> Nvmm.tear m ~old_sector ~data ~pos

let commit_request t r =
  let count = Bytes.length r.data / sector_bytes in
  for i = 0 to count - 1 do
    Store.commit_from t.store ~sector:(r.req_sector + i) r.data ~pos:(i * sector_bytes)
  done;
  t.pending <- List.filter (fun p -> p != r) t.pending;
  t.on_complete ~sector:r.req_sector ~count ~write:true

(* Begin a request: compute its service window and move the busy marker.
   Returns (start, completion). *)
let schedule_request t sector count =
  let start = max (Engine.now t.engine) t.busy_until in
  let service = service_time t sector count in
  let completion = start + service in
  t.busy_until <- completion;
  t.busy_us <- t.busy_us + service;
  (start, completion)

(* Latency as seen by the issuer: queueing delay plus service time. *)
let note_request t ~sector ~count ~write ~sync ~issued ~completion =
  if Trace.enabled t.obs then begin
    Trace.incr t.c_requests;
    Trace.observe t.h_latency (completion - issued);
    Trace.emit t.obs Trace.Disk
      (Trace.Disk_request
         { sector; sectors = count; write; sync; issued_us = issued; done_us = completion })
  end

let read_sync t ~sector ~count =
  check_range t sector count;
  let issued = Engine.now t.engine in
  let _, completion = schedule_request t sector count in
  note_request t ~sector ~count ~write:false ~sync:true ~issued ~completion;
  Engine.advance_to t.engine completion;
  t.reads <- t.reads + 1;
  t.sectors_read <- t.sectors_read + count;
  t.on_complete ~sector ~count ~write:false;
  let out = Bytes.create (count * sector_bytes) in
  for i = 0 to count - 1 do
    Store.blit_to t.store ~sector:(sector + i) out ~pos:(i * sector_bytes)
  done;
  out

(* A synchronous request of [count] sectors at [sector]: schedule it,
   wait for it, count it, let [commit] land the payload on the platter,
   then fire the completion callback. *)
let sync_write t ~sector ~count commit =
  check_range t sector count;
  let issued = Engine.now t.engine in
  let _, completion = schedule_request t sector count in
  note_request t ~sector ~count ~write:true ~sync:true ~issued ~completion;
  Engine.advance_to t.engine completion;
  t.writes <- t.writes + 1;
  t.sectors_written <- t.sectors_written + count;
  commit ();
  t.on_complete ~sector ~count ~write:true

let commit_sectors t ~sector data ~count =
  for i = 0 to count - 1 do
    Store.commit_from t.store ~sector:(sector + i) data ~pos:(i * sector_bytes)
  done

let write_sync t ~sector data =
  let data, count = pad_to_sectors data in
  sync_write t ~sector ~count (fun () -> commit_sectors t ~sector data ~count)

(* The same request as [write_sync] of the materialized buffer — same
   schedule, trace event, counters and completion callback — but the
   payload arrives as extents over an implicit zero background. Only the
   extents' sectors are committed one by one; each gap is swept off the
   [nonzero] bitmap in O(gap/8) (absent sectors read as zeros). *)
let write_sync_sparse t ~sector ~count extents =
  let (_ : int) =
    List.fold_left
      (fun next (off, data) ->
        let n = Bytes.length data / sector_bytes in
        if off < next || Bytes.length data <> n * sector_bytes || off + n > count then
          invalid_arg
            "Disk.write_sync_sparse: extents must be sorted, disjoint, whole sectors within count";
        off + n)
      0 extents
  in
  sync_write t ~sector ~count (fun () ->
      let zeros_upto next stop =
        if stop > next then Store.commit_zeros t.store ~sector:(sector + next) ~count:(stop - next)
      in
      let next =
        List.fold_left
          (fun next (off, data) ->
            let n = Bytes.length data / sector_bytes in
            zeros_upto next off;
            commit_sectors t ~sector:(sector + off) data ~count:n;
            off + n)
          0 extents
      in
      zeros_upto next count)

let max_queue_depth = 32

let write_async t ~sector data =
  let data, count = pad_to_sectors data in
  check_range t sector count;
  (* A bounded queue: a heavy asynchronous writer eventually runs at disk
     speed, as on a real system. *)
  while List.length t.pending >= max_queue_depth do
    match t.pending with
    | oldest :: _ -> Engine.advance_to t.engine oldest.completion_time
    | [] -> ()
  done;
  let issued = Engine.now t.engine in
  let start, completion = schedule_request t sector count in
  note_request t ~sector ~count ~write:true ~sync:false ~issued ~completion;
  t.writes <- t.writes + 1;
  t.sectors_written <- t.sectors_written + count;
  let rec request =
    lazy
      {
        req_sector = sector;
        data;
        start_time = start;
        completion_time = completion;
        handle =
          Engine.schedule_at t.engine ~time:completion (fun _ ->
              commit_request t (Lazy.force request));
      }
  in
  t.pending <- t.pending @ [ Lazy.force request ]

let drain t =
  Engine.advance_to t.engine t.busy_until;
  (* Events at exactly [busy_until] have fired; a non-empty pending list
     would mean a commit event landed beyond busy_until, which cannot
     happen. *)
  assert (t.pending = [])

let pending_writes t = List.length t.pending

let crash t =
  let now = Engine.now t.engine in
  List.iter
    (fun r ->
      Engine.cancel t.engine r.handle;
      if r.start_time <= now then begin
        (* In-flight: commit the sectors already behind the write point,
           tear the one being written. *)
        let count = Bytes.length r.data / sector_bytes in
        let window = r.completion_time - r.start_time in
        let frac =
          if window <= 0 then 0.
          else float_of_int (now - r.start_time) /. float_of_int window
        in
        let committed = int_of_float (frac *. float_of_int count) in
        for i = 0 to min committed count - 1 do
          Store.commit_from t.store ~sector:(r.req_sector + i) r.data ~pos:(i * sector_bytes)
        done;
        if committed < count then begin
          let sector = r.req_sector + committed in
          commit_sector t sector
            (torn_sector t ~sector ~data:r.data ~pos:(committed * sector_bytes))
        end
      end)
    t.pending;
  t.pending <- [];
  t.busy_until <- Engine.now t.engine

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    sectors_read = t.sectors_read;
    sectors_written = t.sectors_written;
    seeks = t.seeks;
    busy_us = t.busy_us;
  }

(* ---- world-template rewind ----

   The checkpoint deep-copies the store (taken post-mount it holds only a
   handful of sectors) and remembers the backend mechanism state (head
   position and tear-pattern PRNG for SCSI, log tail for NVMM — [crash]
   draws torn-sector bytes from the SCSI stream, so a restored world must
   replay the identical tears) plus the statistics. Pending requests
   cannot be checkpointed (their completion events live in the engine
   queue, which the world restore clears); freeze only with the queue
   drained — a non-empty queue here is a caller bug, not a condition to
   paper over. *)

type mech_state =
  | Scsi_s of Scsi.state
  | Nvmm_s of Nvmm.state

type checkpoint = {
  ck_store : Store.state;
  ck_mech : mech_state;
  ck_busy_until : int;
  ck_stats : stats;
}

let checkpoint t =
  if t.pending <> [] then
    invalid_arg
      (Printf.sprintf
         "Disk.checkpoint: request queue not empty (%d async write(s) still queued); drain first"
         (List.length t.pending));
  {
    ck_store = Store.checkpoint t.store;
    ck_mech =
      (match t.mech with
      | Scsi_m m -> Scsi_s (Scsi.state m)
      | Nvmm_m m -> Nvmm_s (Nvmm.state m));
    ck_busy_until = t.busy_until;
    ck_stats = stats t;
  }

let restore t ck =
  Store.restore t.store ck.ck_store;
  (match (t.mech, ck.ck_mech) with
  | Scsi_m m, Scsi_s s -> Scsi.set_state m s
  | Nvmm_m m, Nvmm_s s -> Nvmm.set_state m s
  | (Scsi_m _ | Nvmm_m _), _ ->
    invalid_arg "Disk.restore: checkpoint was taken on a different backend");
  t.busy_until <- ck.ck_busy_until;
  t.pending <- [];
  t.reads <- ck.ck_stats.reads;
  t.writes <- ck.ck_stats.writes;
  t.sectors_read <- ck.ck_stats.sectors_read;
  t.sectors_written <- ck.ck_stats.sectors_written;
  t.seeks <- ck.ck_stats.seeks;
  t.busy_us <- ck.ck_stats.busy_us

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.sectors_read <- 0;
  t.sectors_written <- 0;
  t.seeks <- 0;
  t.busy_us <- 0

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "reads=%d (%d sect) writes=%d (%d sect) seeks=%d busy=%a" s.reads
    s.sectors_read s.writes s.sectors_written s.seeks Rio_util.Units.pp_usec s.busy_us
