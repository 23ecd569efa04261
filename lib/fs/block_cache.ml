open Fs_types
module Phys_mem = Rio_mem.Phys_mem
module Page_alloc = Rio_mem.Page_alloc
module Disk = Rio_disk.Disk

type entry = {
  blkno : int;
  paddr : int;
  mutable dirty : bool;
  mutable owner : Fs_types.owner;
  mutable valid : int;
  mutable tick : int;
  mutable pinned : bool;
}

type fill = Zero | From_disk

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  fills : int;
}

type t = {
  name : string;
  mem : Phys_mem.t;
  disk : Disk.t;
  alloc : Page_alloc.t;
  hooks : Hooks.t;
  sector_of_blkno : int -> int;
  backed : bool;
  table : (int, entry) Hashtbl.t;
  mutable ndirty : int;  (* dirty entries in [table]: flush_dirty's early-out *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable fills : int;
}

let create ~name ~mem ~disk ~alloc ~hooks ~sector_of_blkno ~backed =
  {
    name;
    mem;
    disk;
    alloc;
    hooks;
    sector_of_blkno;
    backed;
    table = Hashtbl.create 256;
    ndirty = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    fills = 0;
  }

let touch t entry =
  t.clock <- t.clock + 1;
  entry.tick <- t.clock

let write_back ?via t entry ~sync =
  if t.backed then begin
    let data = Phys_mem.blit_out t.mem entry.paddr ~len:block_bytes in
    let sector = t.sector_of_blkno entry.blkno in
    (match (via, sync) with
    | _, true -> Disk.write_sync t.disk ~sector data
    | Some stage, false -> stage ~sector data
    | None, false -> Disk.write_async t.disk ~sector data);
    t.writebacks <- t.writebacks + 1
  end;
  if entry.dirty then t.ndirty <- t.ndirty - 1;
  entry.dirty <- false

let remove_entry t entry =
  if entry.dirty then t.ndirty <- t.ndirty - 1;
  entry.dirty <- false;
  Hashtbl.remove t.table entry.blkno;
  t.hooks.Hooks.note_unmap ~paddr:entry.paddr;
  Page_alloc.free t.alloc entry.paddr

(* Choose the least-recently-used unpinned victim, preferring clean pages so
   an overflowing cache does not always pay a synchronous disk write. *)
let pick_victim t =
  let best = ref None in
  let consider e =
    if not e.pinned then
      match !best with
      | None -> best := Some e
      | Some b ->
        let better =
          if e.dirty = b.dirty then e.tick < b.tick
          else b.dirty (* prefer the clean one *)
        in
        if better then best := Some e
  in
  Hashtbl.iter (fun _ e -> consider e) t.table;
  !best

let evict_one t =
  match pick_victim t with
  | None -> false
  | Some victim ->
    if victim.dirty then begin
      if not t.backed then err "%s: memory file system full (all pages dirty)" t.name;
      write_back t victim ~sync:true
    end;
    t.evictions <- t.evictions + 1;
    remove_entry t victim;
    true

let acquire_page t =
  match Page_alloc.alloc t.alloc with
  | Some paddr -> paddr
  | None ->
    if not (evict_one t) then err "%s: out of pages and nothing evictable" t.name;
    (match Page_alloc.alloc t.alloc with
    | Some paddr -> paddr
    | None -> err "%s: page pool exhausted by other users" t.name)

let fill_entry t entry fill =
  match fill with
  | Zero ->
    t.hooks.Hooks.open_write ~paddr:entry.paddr;
    Phys_mem.fill t.mem entry.paddr ~len:block_bytes '\000';
    t.hooks.Hooks.close_write ~paddr:entry.paddr
  | From_disk ->
    if t.backed then begin
      let sector = t.sector_of_blkno entry.blkno in
      let data = Disk.read_sync t.disk ~sector ~count:sectors_per_block in
      t.hooks.Hooks.open_write ~paddr:entry.paddr;
      Phys_mem.blit_in t.mem entry.paddr data;
      t.hooks.Hooks.close_write ~paddr:entry.paddr;
      t.fills <- t.fills + 1
    end
    else begin
      (* Unbacked caches have no disk image: a miss is a fresh zero block. *)
      t.hooks.Hooks.open_write ~paddr:entry.paddr;
      Phys_mem.fill t.mem entry.paddr ~len:block_bytes '\000';
      t.hooks.Hooks.close_write ~paddr:entry.paddr
    end

let announce t entry =
  t.hooks.Hooks.note_map ~paddr:entry.paddr ~blkno:entry.blkno ~owner:entry.owner
    ~valid:entry.valid

let get t ~blkno ~owner ~fill =
  match Hashtbl.find_opt t.table blkno with
  | Some entry ->
    t.hits <- t.hits + 1;
    touch t entry;
    if entry.owner <> owner then begin
      entry.owner <- owner;
      announce t entry
    end;
    entry
  | None ->
    t.misses <- t.misses + 1;
    let paddr = acquire_page t in
    let entry = { blkno; paddr; dirty = false; owner; valid = block_bytes; tick = 0; pinned = false } in
    touch t entry;
    Hashtbl.replace t.table blkno entry;
    fill_entry t entry fill;
    announce t entry;
    entry

let lookup t ~blkno = Hashtbl.find_opt t.table blkno

let credit_hits t entry k =
  if k > 0 then begin
    t.hits <- t.hits + k;
    t.clock <- t.clock + k;
    entry.tick <- t.clock
  end

let mark_dirty t entry =
  touch t entry;
  if not entry.dirty then t.ndirty <- t.ndirty + 1;
  entry.dirty <- true

let set_valid t entry valid =
  entry.valid <- valid;
  announce t entry

let flush_dirty ?via t ~sync ?(only = fun _ -> true) () =
  (* Nothing dirty, nothing to scan: the update daemon calls this on every
     pass, so a clean cache must not pay a full-table walk. *)
  if t.ndirty = 0 then 0
  else begin
    let before = t.ndirty in
    let flushed = ref 0 in
    let dirty = ref [] in
    Hashtbl.iter (fun _ e -> if e.dirty && only e then dirty := e :: !dirty) t.table;
    (* Deterministic order: by block number. *)
    let sorted = List.sort (fun a b -> compare a.blkno b.blkno) !dirty in
    List.iter
      (fun e ->
        write_back ?via t e ~sync;
        incr flushed)
      sorted;
    (* Each write_back retired exactly one dirty entry from the count. *)
    assert (t.ndirty = before - !flushed);
    !flushed
  end

let invalidate t ~blkno =
  match Hashtbl.find_opt t.table blkno with
  | None -> ()
  | Some entry -> remove_entry t entry

let drop_all t =
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
  List.iter (fun e -> remove_entry t e) entries

let iter t f =
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
  let sorted = List.sort (fun a b -> compare a.blkno b.blkno) entries in
  List.iter f sorted

let dirty_count t = t.ndirty

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks;
    fills = t.fills }

(* ---- world-template rewind ----

   Entries point at simulated pages whose contents rewind with the
   memory snapshot; the host-side table (which blocks are cached, where,
   dirty bits, LRU ticks, statistics) is deep-copied here so a restored
   world sees the identical cache population and eviction order. *)

type checkpoint = {
  ck_entries : entry list; (* copies, one per table entry *)
  ck_ndirty : int;
  ck_clock : int;
  ck_stats : stats;
}

let checkpoint t =
  {
    ck_entries = Hashtbl.fold (fun _ e acc -> { e with blkno = e.blkno } :: acc) t.table [];
    ck_ndirty = t.ndirty;
    ck_clock = t.clock;
    ck_stats = stats t;
  }

let restore t ck =
  Hashtbl.reset t.table;
  List.iter (fun e -> Hashtbl.replace t.table e.blkno { e with blkno = e.blkno }) ck.ck_entries;
  t.ndirty <- ck.ck_ndirty;
  t.clock <- ck.ck_clock;
  t.hits <- ck.ck_stats.hits;
  t.misses <- ck.ck_stats.misses;
  t.evictions <- ck.ck_stats.evictions;
  t.writebacks <- ck.ck_stats.writebacks;
  t.fills <- ck.ck_stats.fills

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits=%d misses=%d evictions=%d writebacks=%d fills=%d" s.hits s.misses
    s.evictions s.writebacks s.fills
