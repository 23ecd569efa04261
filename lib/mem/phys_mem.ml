type snapshot = {
  owner_id : int;
  (* pfn -> the page's bytes as they were at snapshot time. Filled lazily
     by the first post-snapshot write to each page (copy-on-write). *)
  saved : (int, bytes) Hashtbl.t;
  mutable active : bool;
}

type t = {
  data : bytes;
  id : int;
  (* Per-page monotonic mutation counter. Never reset (a power cycle bumps
     it rather than zeroing), so any cache keyed by (page, version) — the
     CPU's decoded-instruction cache, the checksum memo below — can never
     alias two different contents of the same page. Version 0 means the
     page has never been written and still holds its created zeroes. *)
  version : int array;
  mutable dirty_pages : int;
  mutable snaps : snapshot list;
  (* Single-page checksum memo: checksum_range is re-asked for the same
     (addr, len) by warm-reboot verification and Rio's checksum audit;
     the version key makes reuse exact. *)
  crc_addr : int array;
  crc_len : int array;
  crc_ver : int array;
  crc_val : int array;
  (* Incremental-update scratch carried between [incr_pre] (before a
     write mutates the bytes) and [incr_commit] (after): see the
     write-path bookkeeping section. *)
  mutable incr_state : int;
  mutable incr_lo : int;
  mutable incr_hi : int;
  mutable incr_acc : int;
}

type paddr = int

let page_size = 8192

(* Snapshot-owner ids; memories are created from every worker domain. *)
let next_id = Atomic.make 0

(* Retired memory images by size class. A campaign boots a fresh
   multi-megabyte world per trial; allocating (and zeroing) that image
   each time dominates boot and keeps the major GC busy. [retire] re-zeroes
   only the dirty pages — O(dirty), tracked by the version array — and
   parks the buffer here; [create] then hands out an already-zeroed image.
   Shared across domains under the lock; capped so idle buffers do not pile
   up past what a parallel campaign can actually have in flight. *)
let pool : (int, bytes list ref) Hashtbl.t = Hashtbl.create 4
let pool_lock = Mutex.create ()
let pool_cap = 16

let pool_take len =
  Mutex.protect pool_lock (fun () ->
      match Hashtbl.find_opt pool len with
      | Some ({ contents = b :: rest } as l) ->
        l := rest;
        Some b
      | _ -> None)

let pool_put b =
  Mutex.protect pool_lock (fun () ->
      let key = Bytes.length b in
      match Hashtbl.find_opt pool key with
      | Some l -> if List.length !l < pool_cap then l := b :: !l
      | None -> Hashtbl.add pool key (ref [ b ]))

let create ~bytes_total =
  let pages = max 1 ((bytes_total + page_size - 1) / page_size) in
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  let len = pages * page_size in
  let data = match pool_take len with Some b -> b | None -> Bytes.make len '\000' in
  {
    data;
    id;
    version = Array.make pages 0;
    dirty_pages = 0;
    snaps = [];
    crc_addr = Array.make pages (-1);
    crc_len = Array.make pages (-1);
    crc_ver = Array.make pages (-1);
    crc_val = Array.make pages 0;
    incr_state = 0;
    incr_lo = 0;
    incr_hi = 0;
    incr_acc = 0;
  }

let size t = Bytes.length t.data

let page_count t = size t / page_size

let page_base pfn = pfn * page_size

let pfn_of_addr addr = addr / page_size

let in_range t addr ~len = addr >= 0 && len >= 0 && addr + len <= size t

let check t addr len =
  if not (in_range t addr ~len) then
    invalid_arg (Printf.sprintf "Phys_mem: access [%#x,+%d) outside %#x bytes" addr len (size t))

(* ---------------- write-path bookkeeping ---------------- *)

let cow_save t pfn =
  List.iter
    (fun s ->
      if s.active && not (Hashtbl.mem s.saved pfn) then
        Hashtbl.add s.saved pfn (Bytes.sub t.data (pfn * page_size) page_size))
    t.snaps

(* Called before every mutation of page [pfn]: bump the version (decode and
   checksum caches key on it), mark the page dirty, and save the pre-image
   into any active snapshot that has not seen this page yet. *)
let touch_page t pfn =
  let v = Array.unsafe_get t.version pfn in
  if v = 0 then t.dirty_pages <- t.dirty_pages + 1;
  Array.unsafe_set t.version pfn (v + 1);
  match t.snaps with [] -> () | _ -> cow_save t pfn

let touch_range t addr len =
  if len > 0 then
    for pfn = addr / page_size to (addr + len - 1) / page_size do
      touch_page t pfn
    done

(* ---- incremental checksum maintenance ----

   [checksum_range] memoizes one (addr, len, version) checksum per
   page. A write normally invalidates it (the version bumps), so the
   next checksum re-reads the whole range — the dominant cost of the
   file cache's close-write audit. For small single-page writes to a
   page whose memo is fresh, we instead keep the memo true across the
   write: CRC-32 is linear over GF(2), so

     crc(new) = crc(old) xor shift (raw (old xor new)) trailing

   where raw is the register contribution of the changed bytes and
   the shift accounts for the unchanged tail. [incr_pre] runs before
   the bytes change (capturing the old range's raw CRC), [incr_commit]
   after — the resulting memo value is bit-identical to a full
   recompute, merely cheaper. Large writes fall back to the normal
   invalidate-and-recompute path. *)

let incr_threshold = 2048

let incr_pre t addr len =
  if len > 0 && len <= incr_threshold then begin
    let pfn = addr / page_size in
    if
      (addr + len - 1) / page_size = pfn
      && Array.unsafe_get t.crc_ver pfn = Array.unsafe_get t.version pfn
      && Array.unsafe_get t.crc_len pfn >= 0
    then begin
      let a0 = Array.unsafe_get t.crc_addr pfn in
      let b0 = a0 + Array.unsafe_get t.crc_len pfn in
      let a = if addr > a0 then addr else a0 in
      let b = if addr + len < b0 then addr + len else b0 in
      if a >= b then begin
        (* Write entirely outside the memoized range: value unchanged. *)
        t.incr_state <- 1;
        t.incr_lo <- pfn
      end
      else begin
        t.incr_state <- 2;
        t.incr_lo <- a;
        t.incr_hi <- b;
        t.incr_acc <- Rio_util.Checksum.crc32_raw t.data ~pos:a ~len:(b - a)
      end
    end
  end

let incr_commit t =
  match t.incr_state with
  | 0 -> ()
  | 1 ->
    let pfn = t.incr_lo in
    Array.unsafe_set t.crc_ver pfn (Array.unsafe_get t.version pfn);
    t.incr_state <- 0
  | _ ->
    let pfn = t.incr_lo / page_size in
    let raw_new = Rio_util.Checksum.crc32_raw t.data ~pos:t.incr_lo ~len:(t.incr_hi - t.incr_lo) in
    let tail = Array.unsafe_get t.crc_addr pfn + Array.unsafe_get t.crc_len pfn - t.incr_hi in
    Array.unsafe_set t.crc_val pfn
      (Array.unsafe_get t.crc_val pfn
      lxor Rio_util.Checksum.shift_zeros (t.incr_acc lxor raw_new) ~zeros:tail);
    Array.unsafe_set t.crc_ver pfn (Array.unsafe_get t.version pfn);
    t.incr_state <- 0

let page_version t pfn = t.version.(pfn)

(* ---------------- dirty-page bitmap ---------------- *)

let is_dirty t pfn = t.version.(pfn) > 0

let dirty_count t = t.dirty_pages

let iter_dirty t f =
  for pfn = 0 to page_count t - 1 do
    if Array.unsafe_get t.version pfn > 0 then f pfn
  done

(* ---------------- access ---------------- *)

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  check t addr 1;
  incr_pre t addr 1;
  touch_page t (addr / page_size);
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  incr_commit t

let read_u32 t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFF_FFFF

let write_u32 t addr v =
  check t addr 4;
  incr_pre t addr 4;
  touch_range t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int v);
  incr_commit t

let read_u64 t addr =
  check t addr 8;
  Int64.to_int (Bytes.get_int64_le t.data addr)

let write_u64 t addr v =
  check t addr 8;
  incr_pre t addr 8;
  touch_range t addr 8;
  Bytes.set_int64_le t.data addr (Int64.of_int v);
  incr_commit t

let blit_in t addr b =
  check t addr (Bytes.length b);
  incr_pre t addr (Bytes.length b);
  touch_range t addr (Bytes.length b);
  Bytes.blit b 0 t.data addr (Bytes.length b);
  incr_commit t

let blit_from t addr src ~pos ~len =
  check t addr len;
  incr_pre t addr len;
  touch_range t addr len;
  Bytes.blit src pos t.data addr len;
  incr_commit t

let blit_out t addr ~len =
  check t addr len;
  Bytes.sub t.data addr len

let blit_into t addr dst ~pos ~len =
  check t addr len;
  Bytes.blit t.data addr dst pos len

let blit_within t ~src ~dst ~len =
  check t src len;
  check t dst len;
  incr_pre t dst len;
  touch_range t dst len;
  Bytes.blit t.data src t.data dst len;
  incr_commit t

let fill t addr ~len c =
  check t addr len;
  incr_pre t addr len;
  touch_range t addr len;
  Bytes.fill t.data addr len c;
  incr_commit t

let checksum_range t addr ~len =
  check t addr len;
  let pfn = addr / page_size in
  if len > 0 && (addr + len - 1) / page_size = pfn then begin
    (* Within one page: memoized on (addr, len, page version). *)
    let ver = Array.unsafe_get t.version pfn in
    if
      Array.unsafe_get t.crc_addr pfn = addr
      && Array.unsafe_get t.crc_len pfn = len
      && Array.unsafe_get t.crc_ver pfn = ver
    then Array.unsafe_get t.crc_val pfn
    else begin
      let v = Rio_util.Checksum.crc32 t.data ~pos:addr ~len in
      Array.unsafe_set t.crc_addr pfn addr;
      Array.unsafe_set t.crc_len pfn len;
      Array.unsafe_set t.crc_ver pfn ver;
      Array.unsafe_set t.crc_val pfn v;
      v
    end
  end
  else Rio_util.Checksum.crc32 t.data ~pos:addr ~len

let flip_bit t addr ~bit =
  assert (bit >= 0 && bit < 8);
  write_u8 t addr (read_u8 t addr lxor (1 lsl bit))

let reset _t = ()

let power_cycle t =
  touch_range t 0 (Bytes.length t.data);
  Bytes.fill t.data 0 (Bytes.length t.data) '\000'

let dump t = Bytes.copy t.data

let restore_dump t d =
  if Bytes.length d <> Bytes.length t.data then
    invalid_arg "Phys_mem.restore_dump: size mismatch";
  touch_range t 0 (Bytes.length d);
  Bytes.blit d 0 t.data 0 (Bytes.length d)

let unsafe_raw t = t.data

(* End-of-trial teardown: zero the dirty pages and return the buffer to
   the pool for the next [create] of the same size. The memory must not be
   used afterwards — the buffer will be handed to a different [t]. *)
let retire t =
  (match t.snaps with
  | [] -> ()
  | _ -> invalid_arg "Phys_mem.retire: snapshot still active");
  for pfn = 0 to page_count t - 1 do
    if Array.unsafe_get t.version pfn > 0 then
      Bytes.fill t.data (pfn * page_size) page_size '\000'
  done;
  pool_put t.data

(* ---------------- copy-on-write snapshots ---------------- *)

let snapshot t =
  let s = { owner_id = t.id; saved = Hashtbl.create 64; active = true } in
  t.snaps <- s :: t.snaps;
  s

let release t s =
  s.active <- false;
  t.snaps <- List.filter (fun s' -> s' != s) t.snaps

let check_owner t s fn =
  if s.owner_id <> t.id then invalid_arg ("Phys_mem." ^ fn ^ ": snapshot from another memory")

let restore t s =
  check_owner t s "restore";
  (* Detach first so writing the pre-images back does not COW into the
     snapshot we are reading from. *)
  release t s;
  Hashtbl.iter
    (fun pfn pre ->
      let addr = pfn * page_size in
      touch_page t pfn;
      Bytes.blit pre 0 t.data addr page_size)
    s.saved

(* Rewind to the snapshot's contents WITHOUT consuming it: write the
   pre-images back, clear the snapshot's saved table so it begins
   accumulating dirt afresh, and leave it active — the world-template
   restore that runs between trials. The snapshot is deactivated while
   the pre-images blit back so the writes do not COW into the table being
   drained (other overlapping active snapshots still get their saves).
   Returns the number of pages restored. *)
let restore_keep t s =
  check_owner t s "restore_keep";
  s.active <- false;
  let n = Hashtbl.length s.saved in
  Hashtbl.iter
    (fun pfn pre ->
      touch_page t pfn;
      Bytes.blit pre 0 t.data (pfn * page_size) page_size)
    s.saved;
  Hashtbl.reset s.saved;
  s.active <- true;
  n

let snap_saved_pages s = Hashtbl.length s.saved

(* Read [len] bytes at [addr] as they were at snapshot time: saved pages
   come from the snapshot, untouched pages from live memory. *)
let snap_blit_into t s addr dst ~pos ~len =
  check_owner t s "snap_blit_into";
  check t addr len;
  let p = ref pos and a = ref addr and remaining = ref len in
  while !remaining > 0 do
    let pfn = !a / page_size in
    let off = !a mod page_size in
    let n = min !remaining (page_size - off) in
    (match Hashtbl.find_opt s.saved pfn with
    | Some pre -> Bytes.blit pre off dst !p n
    | None -> Bytes.blit t.data !a dst !p n);
    p := !p + n;
    a := !a + n;
    remaining := !remaining - n
  done

let snap_blit_out t s addr ~len =
  let b = Bytes.create len in
  snap_blit_into t s addr b ~pos:0 ~len;
  b

(* Whether the snapshot-time content of page [pfn] is known to be all
   zeroes: the page has never been written (version 0 pages still hold
   their created zeroes). A COW-saved page was written after the
   snapshot, and every write bumps the version first, so version 0 also
   rules out a saved pre-image — no table probe needed. *)
let snap_page_is_zero t s pfn =
  check_owner t s "snap_page_is_zero";
  t.version.(pfn) = 0

let snap_checksum_range t s addr ~len =
  check_owner t s "snap_checksum_range";
  check t addr len;
  let lo = addr / page_size and hi = (addr + len - 1) / page_size in
  let any_saved = ref false in
  for pfn = lo to hi do
    if Hashtbl.mem s.saved pfn then any_saved := true
  done;
  if not !any_saved then
    (* Untouched since the snapshot: live memory is the snapshot content,
       and the single-page memo applies. *)
    checksum_range t addr ~len
  else begin
    let b = snap_blit_out t s addr ~len in
    Rio_util.Checksum.crc32 b ~pos:0 ~len
  end
