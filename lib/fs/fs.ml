open Fs_types
module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Phys_mem = Rio_mem.Phys_mem
module Page_alloc = Rio_mem.Page_alloc
module Disk = Rio_disk.Disk

type policy =
  | Mfs
  | Ufs_default
  | Ufs_delayed
  | Wt_close
  | Wt_write
  | Advfs
  | Rio_policy
  | Rio_idle

let policy_name = function
  | Mfs -> "memory-fs"
  | Ufs_default -> "ufs"
  | Ufs_delayed -> "ufs-delayed"
  | Wt_close -> "wt-close"
  | Wt_write -> "wt-write"
  | Advfs -> "advfs"
  | Rio_policy -> "rio"
  | Rio_idle -> "rio-idle"

let all_policies =
  [ Mfs; Ufs_delayed; Advfs; Ufs_default; Wt_close; Wt_write; Rio_policy; Rio_idle ]

(* What each policy does, as UFS plus the changes it makes (DESIGN §4
   tabulates them). Nothing else in the library names a policy
   constructor to decide anything. *)

type meta_write = Delayed | Sync | Journal
type flush = Never | Async | Sync

type rules = {
  disk : bool;
  meta : meta_write;
  on_write : flush;
  on_close : flush;
  daemon : bool;
  trusts_memory : bool;
}

let ufs =
  { disk = true; meta = Sync; on_write = Async; on_close = Async; daemon = true;
    trusts_memory = false }

(* §2.3: bwrite and bawrite become bdwrite, sync and fsync return
   immediately, and panic no longer writes dirty buffers back. *)
let rio =
  { ufs with meta = Delayed; on_write = Never; on_close = Never; daemon = false;
    trusts_memory = true }

let rules = function
  | Ufs_default -> ufs
  | Ufs_delayed -> { ufs with meta = Delayed; on_write = Never; on_close = Never }
  | Advfs -> { ufs with meta = Journal }
  | Wt_close -> { ufs with on_close = Sync }
  | Wt_write -> { ufs with on_write = Sync; on_close = Never }
  | Rio_policy -> rio
  | Rio_idle -> { rio with daemon = true }
  | Mfs -> { rio with disk = false }

type geometry = {
  total_sectors : int;
  inode_count : int;
  swap_sectors : int;
  journal_sectors : int;
}

let align16 n = (n + 15) / 16 * 16

let default_geometry ~disk_sectors ~mem_bytes =
  let swap_sectors = align16 ((mem_bytes + 511) / 512) in
  let journal_sectors = align16 2048 in
  (* One inode per data block: source trees are mostly small files. *)
  let data_guess = max 1 ((disk_sectors - swap_sectors - journal_sectors) / sectors_per_block) in
  { total_sectors = disk_sectors; inode_count = max 64 data_guess; swap_sectors;
    journal_sectors }

(* Compute the full on-disk layout from a geometry. *)
let layout_of_geometry g =
  let bitmap_sectors_for bits = (bits + (8 * 512) - 1) / (8 * 512) in
  let swap_start = 16 in
  let journal_start = swap_start + g.swap_sectors in
  let ibitmap_start = journal_start + g.journal_sectors in
  let ibitmap_sectors = bitmap_sectors_for g.inode_count in
  let bbitmap_start = ibitmap_start + ibitmap_sectors in
  (* Pessimistic bitmap sizing: every remaining sector could be data. *)
  let bbitmap_sectors = bitmap_sectors_for (g.total_sectors / sectors_per_block) in
  let itable_start = bbitmap_start + bbitmap_sectors in
  let data_start = align16 (itable_start + g.inode_count) in
  if data_start >= g.total_sectors then err "mkfs: disk too small for geometry";
  let data_blocks = (g.total_sectors - data_start) / sectors_per_block in
  if data_blocks < 1 then err "mkfs: no room for data blocks";
  {
    Ondisk.total_sectors = g.total_sectors;
    inode_count = g.inode_count;
    swap_start;
    swap_sectors = g.swap_sectors;
    journal_start;
    journal_sectors = g.journal_sectors;
    ibitmap_start;
    ibitmap_sectors;
    bbitmap_start;
    bbitmap_sectors;
    itable_start;
    data_start;
    data_blocks;
    clean = true;
  }

let mkfs ~disk g =
  let sb = layout_of_geometry g in
  if sb.Ondisk.total_sectors > Disk.capacity_sectors disk then
    err "mkfs: geometry exceeds disk capacity";
  Disk.poke disk ~sector:Ondisk.superblock_sector (Ondisk.write_superblock sb);
  let zero = Bytes.make Disk.sector_bytes '\000' in
  for s = sb.Ondisk.ibitmap_start to sb.Ondisk.itable_start + sb.Ondisk.inode_count - 1 do
    Disk.poke disk ~sector:s zero
  done;
  (* Root: inode 1, an empty directory. *)
  let ibm = Bytes.make Disk.sector_bytes '\000' in
  Bytes.set ibm 0 '\001';
  Disk.poke disk ~sector:sb.Ondisk.ibitmap_start ibm;
  let root = Ondisk.empty_inode Directory in
  root.Ondisk.nlink <- 1;
  let img = Bytes.make Ondisk.inode_bytes '\000' in
  Ondisk.write_inode root img ~pos:0;
  Disk.poke disk ~sector:(Ondisk.inode_sector sb root_ino) img

(* ------------------------------------------------------------------ *)

type fd = int

type fd_state = {
  fd_ino : int;
  mutable pos : int;
  mutable last_end : int; (* end offset of the previous write (sequentiality) *)
  mutable pending : int; (* dirty bytes since the last cluster flush *)
}

type stat = {
  st_ino : int;
  st_ftype : Fs_types.ftype;
  st_size : int;
  st_nlink : int;
  st_mtime : int;
}

type meta_class = Class_inode | Class_dir | Class_bitmap | Class_super

(* One decoded directory block: the entries in on-disk order, the bytes
   they occupy (the append offset for new entries), and a name→inode
   index over them. Validated against the (paddr, page version) of the
   cached page — versions are monotonic and never reset, so a hit can
   only mean byte-identical content. Purely a host-side decode cache:
   simulated time and on-page bytes are untouched. *)
type dir_block = {
  db_paddr : int;
  db_ver : int;
  db_entries : (string * int) list;
  db_used : int;
  db_index : (string, int) Hashtbl.t;
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  mem : Phys_mem.t;
  disk : Disk.t;
  policy : policy;
  rules : rules;
  hooks : Hooks.t;
  sb : Ondisk.superblock;
  meta : Block_cache.t;
  data : Block_cache.t;
  journal : Journal.t option;
  wb : Write_behind.t option;
  icache : (int, Ondisk.inode) Hashtbl.t;
  dir_cache : (int, dir_block) Hashtbl.t;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
  mutable ialloc_hint : int;
  mutable balloc_hint : int;
  (* Free-slot counters shadowing the allocation bitmaps: exhaustion
     errors fire before any bitmap scan, and the scans themselves are
     guaranteed to terminate on a free slot. *)
  mutable free_inodes : int;
  mutable free_blocks : int;
  mutable daemon : Engine.handle option;
  mutable daemon_due : int; (* absolute due time of the pending daemon pass *)
  mutable alive : bool;
}

let engine t = t.engine
let policy t = t.policy
let meta_cache t = t.meta
let data_cache t = t.data

let charge t us = Engine.advance_by t.engine us
let charge_syscall t = charge t t.costs.Costs.syscall_overhead
let charge_copy t bytes = charge t (Costs.copy_time t.costs bytes)

(* ---------------- metadata access ---------------- *)

let sector_page_base sector = sector - (sector mod sectors_per_block)

let meta_get t ~sector ~pin =
  let base = sector_page_base sector in
  let entry = Block_cache.get t.meta ~blkno:base ~owner:Meta ~fill:Block_cache.From_disk in
  if pin then Block_cache.pin t.meta entry;
  entry

(* Address of [sector]'s bytes inside its cached page. *)
let meta_addr (entry : Block_cache.entry) sector =
  entry.Block_cache.paddr + ((sector mod sectors_per_block) * Disk.sector_bytes)

let journal_payload t ~sector ~len =
  let entry = meta_get t ~sector ~pin:false in
  Phys_mem.blit_out t.mem (meta_addr entry sector) ~len

(* Apply the policy's durability rule after a metadata mutation covering
   [len] bytes starting at [sector] (within one page). *)
let policy_meta_write t ~cls ~sector ~len =
  let entry = meta_get t ~sector ~pin:false in
  match t.rules.meta with
  | Delayed -> ()
  | Sync ->
    (match cls with
    | Class_inode | Class_dir ->
      (* The synchronous metadata updates that dominate UFS's cost. *)
      Block_cache.write_back t.meta entry ~sync:true
    | Class_bitmap | Class_super -> ())
  | Journal ->
    (match (t.journal, cls) with
    | Some j, (Class_inode | Class_dir | Class_super) ->
      Journal.append j ~sector (journal_payload t ~sector ~len)
    | Some _, Class_bitmap | None, _ -> ())

(* Mutate [len] metadata bytes at [sector]. [mutate] receives the physical
   address of the sector's bytes. *)
let meta_update t ~cls ~sector ~len mutate =
  let entry = meta_get t ~sector ~pin:(cls = Class_bitmap || cls = Class_super) in
  let addr = meta_addr entry sector in
  t.hooks.Hooks.open_write ~paddr:entry.Block_cache.paddr;
  (* Only critical metadata (inodes, directories, the superblock) gets the
     atomicity wrapper; allocation bitmaps are rebuilt by fsck anyway. *)
  (match cls with
  | Class_inode | Class_dir | Class_super ->
    t.hooks.Hooks.metadata_update ~paddr:entry.Block_cache.paddr (fun () -> mutate addr)
  | Class_bitmap -> mutate addr);
  t.hooks.Hooks.close_write ~paddr:entry.Block_cache.paddr;
  Block_cache.mark_dirty t.meta entry;
  policy_meta_write t ~cls ~sector ~len

(* ---------------- bitmaps ---------------- *)

let bitmap_sector ~start idx = start + (idx / (8 * 512))

let bitmap_get t ~start idx =
  let sector = bitmap_sector ~start idx in
  let entry = meta_get t ~sector ~pin:true in
  let byte = Phys_mem.read_u8 t.mem (meta_addr entry sector + (idx / 8 mod 512)) in
  byte land (1 lsl (idx mod 8)) <> 0

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

(* Clear bits among the first [n] of the bitmap at [start], with one
   meta_get and a popcount per bitmap sector. The modelled scan looks the
   sector's page up once per bit, so the meta cache is credited the
   sector's remaining bits as hits: its statistics and LRU ticks, like
   the misses and fills of a page's first lookup, are those of a
   bitmap_get per bit. *)
let count_free t ~start n =
  let bits_per_sector = 8 * Disk.sector_bytes in
  let free = ref 0 in
  for k = 0 to ((n + bits_per_sector - 1) / bits_per_sector) - 1 do
    let sector = start + k in
    let entry = meta_get t ~sector ~pin:true in
    let addr = meta_addr entry sector in
    let bits = min bits_per_sector (n - (k * bits_per_sector)) in
    let set = ref 0 in
    for w = 0 to (bits / 32) - 1 do
      set := !set + popcount32 (Phys_mem.read_u32 t.mem (addr + (4 * w)))
    done;
    if bits mod 32 <> 0 then
      set :=
        !set
        + popcount32
            (Phys_mem.read_u32 t.mem (addr + (4 * (bits / 32))) land ((1 lsl (bits mod 32)) - 1));
    free := !free + bits - !set;
    Block_cache.credit_hits t.meta entry (bits - 1)
  done;
  !free

let bitmap_set t ~start idx v =
  let sector = bitmap_sector ~start idx in
  meta_update t ~cls:Class_bitmap ~sector ~len:Disk.sector_bytes (fun addr ->
      let pos = addr + (idx / 8 mod 512) in
      let byte = Phys_mem.read_u8 t.mem pos in
      let mask = 1 lsl (idx mod 8) in
      Phys_mem.write_u8 t.mem pos (if v then byte lor mask else byte land lnot mask))

(* The free counter fails the exhausted case immediately; with at least
   one free slot the wrapped scan from the hint must terminate, so the
   [tried] guard of the old code is no longer load-bearing (kept as a
   defensive stop against a counter/bitmap mismatch). *)
let ialloc t =
  if t.free_inodes = 0 then err "out of inodes";
  let n = t.sb.Ondisk.inode_count in
  let rec scan tried idx =
    if tried >= n then err "out of inodes"
    else if not (bitmap_get t ~start:t.sb.Ondisk.ibitmap_start idx) then begin
      bitmap_set t ~start:t.sb.Ondisk.ibitmap_start idx true;
      t.ialloc_hint <- (idx + 1) mod n;
      t.free_inodes <- t.free_inodes - 1;
      idx + 1
    end
    else scan (tried + 1) ((idx + 1) mod n)
  in
  scan 0 t.ialloc_hint

let ifree t ino =
  bitmap_set t ~start:t.sb.Ondisk.ibitmap_start (ino - 1) false;
  t.free_inodes <- t.free_inodes + 1

let balloc t =
  if t.free_blocks = 0 then err "disk full: no free data blocks";
  let n = t.sb.Ondisk.data_blocks in
  let rec scan tried idx =
    if tried >= n then err "disk full: no free data blocks"
    else if not (bitmap_get t ~start:t.sb.Ondisk.bbitmap_start idx) then begin
      bitmap_set t ~start:t.sb.Ondisk.bbitmap_start idx true;
      t.balloc_hint <- (idx + 1) mod n;
      t.free_blocks <- t.free_blocks - 1;
      idx
    end
    else scan (tried + 1) ((idx + 1) mod n)
  in
  scan 0 t.balloc_hint

let bfree t blkno =
  bitmap_set t ~start:t.sb.Ondisk.bbitmap_start blkno false;
  t.free_blocks <- t.free_blocks + 1

(* ---------------- inodes ---------------- *)

let iget t ino =
  match Hashtbl.find_opt t.icache ino with
  | Some inode -> inode
  | None ->
    let sector = Ondisk.inode_sector t.sb ino in
    let entry = meta_get t ~sector ~pin:false in
    let raw = Phys_mem.blit_out t.mem (meta_addr entry sector) ~len:Ondisk.inode_bytes in
    if Ondisk.inode_is_free raw ~pos:0 then err "inode %d is free" ino;
    let inode = Ondisk.read_inode raw ~pos:0 in
    Hashtbl.replace t.icache ino inode;
    inode

(* Serialize an in-core inode into its metadata page. [structural] selects
   the synchronous-update class; pure timestamp/size bumps are delayed even
   under UFS. *)
let iupdate t ino inode ~structural =
  let sector = Ondisk.inode_sector t.sb ino in
  let cls = if structural then Class_inode else Class_bitmap in
  meta_update t ~cls ~sector ~len:Ondisk.inode_bytes (fun addr ->
      let img = Bytes.make Ondisk.inode_bytes '\000' in
      Ondisk.write_inode inode img ~pos:0;
      Phys_mem.blit_in t.mem addr img)

let iclear t ino =
  (* Scrubbing the freed inode slot is deferred like the bitmaps; the
     directory-entry removal is the synchronous commit point of a delete. *)
  let sector = Ondisk.inode_sector t.sb ino in
  Hashtbl.remove t.icache ino;
  meta_update t ~cls:Class_bitmap ~sector ~len:Ondisk.inode_bytes (fun addr ->
      Phys_mem.blit_in t.mem addr (Ondisk.free_inode_image ()))

(* ---------------- directories ---------------- *)

(* Directory data blocks live in the data area but are cached in the buffer
   cache (keyed by absolute sector base), as on the paper's platform. *)
let dir_block_sector t blkno = Ondisk.data_sector t.sb blkno

let dir_index_of entries =
  let tbl = Hashtbl.create (max 16 (List.length entries * 2)) in
  List.iter (fun (name, ino) -> Hashtbl.replace tbl name ino) entries;
  tbl

let dir_used_of entries =
  List.fold_left (fun acc (n, _) -> acc + Ondisk.dir_entry_bytes n) 0 entries

let page_version t paddr = Phys_mem.page_version t.mem (paddr / Phys_mem.page_size)

(* Install decoded block state in the cache against the page's current
   version, so the next read pays neither an 8 KB decode nor an index
   rebuild. [used] and [index] default to ones computed from [entries]. *)
let dir_cache_put ?used ?index t blkno ~paddr entries =
  let db =
    {
      db_paddr = paddr;
      db_ver = page_version t paddr;
      db_entries = entries;
      db_used = (match used with Some u -> u | None -> dir_used_of entries);
      db_index = (match index with Some i -> i | None -> dir_index_of entries);
    }
  in
  Hashtbl.replace t.dir_cache blkno db;
  db

let dir_read_block t blkno =
  let entry = meta_get t ~sector:(dir_block_sector t blkno) ~pin:false in
  let paddr = entry.Block_cache.paddr in
  match Hashtbl.find_opt t.dir_cache blkno with
  | Some db when db.db_paddr = paddr && db.db_ver = page_version t paddr -> db
  | _ ->
    let raw = Phys_mem.blit_out t.mem paddr ~len:block_bytes in
    dir_cache_put t blkno ~paddr (Ondisk.dir_unpack raw ~pos:0 ~len:block_bytes)

(* Full repack: the removal/compaction path. The insert path appends in
   place instead (see [dir_append_block]). *)
let dir_write_block t blkno entries =
  let sector = dir_block_sector t blkno in
  let paddr = ref 0 in
  meta_update t ~cls:Class_dir ~sector ~len:block_bytes (fun addr ->
      paddr := addr;
      Phys_mem.blit_in t.mem addr (Ondisk.dir_pack entries));
  ignore (dir_cache_put t blkno ~paddr:!paddr entries : dir_block)

(* Append one entry at the block's current end offset: [u32 ino][u8 len]
   [name]. The bytes past the last entry are zero (freshly allocated
   blocks are zero-filled and the repack path zeroes the tail), so the
   zero-inode terminator after the appended entry is already in place —
   one small write instead of a full read-decode-append-rewrite cycle. *)
let dir_append_block t blkno db name ino =
  let sector = dir_block_sector t blkno in
  let elen = Ondisk.dir_entry_bytes name in
  let img = Bytes.make elen '\000' in
  Bytes.set_int32_le img 0 (Int32.of_int ino);
  Bytes.set img 4 (Char.chr (String.length name));
  Bytes.blit_string name 0 img 5 (String.length name);
  let paddr = ref 0 in
  meta_update t ~cls:Class_dir ~sector ~len:block_bytes (fun addr ->
      paddr := addr;
      Phys_mem.blit_in t.mem (addr + db.db_used) img);
  (* Incremental cache refresh: extend the existing index in place. *)
  Hashtbl.replace db.db_index name ino;
  ignore
    (dir_cache_put ~used:(db.db_used + elen) ~index:db.db_index t blkno ~paddr:!paddr
       (db.db_entries @ [ (name, ino) ])
      : dir_block)

let dir_blocks inode =
  let nblocks = (inode.Ondisk.size + block_bytes - 1) / block_bytes in
  let rec collect bi acc =
    if bi >= nblocks || bi >= ndirect then List.rev acc
    else begin
      let ptr = inode.Ondisk.blocks.(bi) in
      collect (bi + 1) (if ptr = 0 then acc else (bi, ptr - 1) :: acc)
    end
  in
  collect 0 []

let dir_entries t inode =
  List.concat_map (fun (_, blkno) -> (dir_read_block t blkno).db_entries) (dir_blocks inode)

let dir_find t inode name =
  let rec scan = function
    | [] -> None
    | (_, blkno) :: rest ->
      (match Hashtbl.find_opt (dir_read_block t blkno).db_index name with
      | Some ino -> Some ino
      | None -> scan rest)
  in
  scan (dir_blocks inode)

let dir_add t dirino name ino =
  let dir = iget t dirino in
  let elen = Ondisk.dir_entry_bytes name in
  let rec place = function
    | (_, blkno) :: rest ->
      let db = dir_read_block t blkno in
      if db.db_used + elen <= Ondisk.dir_block_capacity then
        dir_append_block t blkno db name ino
      else place rest
    | [] ->
      (* Grow the directory by one block. *)
      let bi = dir.Ondisk.size / block_bytes in
      if bi >= ndirect then err "directory full";
      let blkno = balloc t in
      dir.Ondisk.blocks.(bi) <- blkno + 1;
      dir.Ondisk.size <- dir.Ondisk.size + block_bytes;
      dir.Ondisk.mtime <- Engine.now t.engine;
      iupdate t dirino dir ~structural:true;
      dir_write_block t blkno [ (name, ino) ]
  in
  place (dir_blocks dir)

let dir_remove t dirino name =
  let dir = iget t dirino in
  let rec scan = function
    | [] -> err "no such directory entry %S" name
    | (_, blkno) :: rest ->
      let db = dir_read_block t blkno in
      if Hashtbl.mem db.db_index name then
        dir_write_block t blkno (List.remove_assoc name db.db_entries)
      else scan rest
  in
  scan (dir_blocks dir)

(* ---------------- data blocks ---------------- *)

let data_owner ino bi = Data { ino; offset = bi * block_bytes }

(* Fetch the cache page for file block [bi], allocating a disk block if
   [alloc]. Returns [None] for a hole when not allocating. *)
let data_block t ino inode bi ~alloc ~fill =
  if bi >= ndirect then err "file too large (inode %d)" ino;
  let ptr = inode.Ondisk.blocks.(bi) in
  if ptr <> 0 then Some (Block_cache.get t.data ~blkno:(ptr - 1) ~owner:(data_owner ino bi) ~fill)
  else if not alloc then None
  else begin
    let blkno = balloc t in
    inode.Ondisk.blocks.(bi) <- blkno + 1;
    Some (Block_cache.get t.data ~blkno ~owner:(data_owner ino bi) ~fill:Block_cache.Zero)
  end

(* Split the byte range [offset, offset + len) at block boundaries and
   call [f ~bi ~in_block ~pos ~chunk] on each piece: file block [bi],
   [chunk] bytes from [in_block] in it, [pos] bytes into the range. *)
let iter_blocks ~offset ~len f =
  let pos = ref 0 in
  while !pos < len do
    let off = offset + !pos in
    let chunk = min (len - !pos) (block_bytes - (off mod block_bytes)) in
    f ~bi:(off / block_bytes) ~in_block:(off mod block_bytes) ~pos:!pos ~chunk;
    pos := !pos + chunk
  done

(* Store into a cached file page inside its write window, then mark it
   dirty with [valid] bytes in use. [store] receives the page's address. *)
let store_data t (entry : Block_cache.entry) ~valid store =
  let paddr = entry.Block_cache.paddr in
  t.hooks.Hooks.open_write ~paddr;
  store paddr;
  t.hooks.Hooks.close_write ~paddr;
  Block_cache.mark_dirty t.data entry;
  Block_cache.set_valid t.data entry valid

let flush_file_data t ino ~sync =
  let only (e : Block_cache.entry) =
    match e.Block_cache.owner with Data d -> d.ino = ino | Meta -> false
  in
  ignore (Block_cache.flush_dirty t.data ~sync ~only ())

let fsync_inode t ino =
  let sector = Ondisk.inode_sector t.sb ino in
  let entry = meta_get t ~sector ~pin:false in
  if entry.Block_cache.dirty then Block_cache.write_back t.meta entry ~sync:true

(* Put the file's dirty data, then its inode, on the platter. *)
let force_file t ino =
  flush_file_data t ino ~sync:true;
  fsync_inode t ino

let read_ino_data t ino ~offset ~len =
  if offset < 0 then err "read: negative offset";
  let inode = iget t ino in
  let len = max 0 (min len (inode.Ondisk.size - offset)) in
  let out = Bytes.make len '\000' in
  if len > 0 then begin
    charge_copy t len;
    iter_blocks ~offset ~len (fun ~bi ~in_block ~pos ~chunk ->
        match data_block t ino inode bi ~alloc:false ~fill:Block_cache.From_disk with
        | Some entry ->
          t.hooks.Hooks.copy_out ~paddr:(entry.Block_cache.paddr + in_block) out pos ~len:chunk
        | None -> () (* hole reads as zeros *))
  end;
  out

(* ---------------- path resolution ---------------- *)

let split_path path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let max_symlink_depth = 8

(* Walk path components from [ino], following symbolic links (absolute
   targets restart at the root; relative targets resolve against the
   symlink's directory). *)
let rec namei_walk t ~path ~depth ino components =
  match components with
  | [] -> ino
  | name :: rest ->
    let inode = iget t ino in
    if inode.Ondisk.ftype <> Directory then err "%s: not a directory" path
    else begin
      match dir_find t inode name with
      | None -> err "%s: no such file or directory" path
      | Some child ->
        let cinode = iget t child in
        (match cinode.Ondisk.ftype with
        | Symlink ->
          if depth >= max_symlink_depth then
            err "%s: too many levels of symbolic links" path;
          let target =
            Bytes.to_string (read_ino_data t child ~offset:0 ~len:cinode.Ondisk.size)
          in
          charge t t.costs.Costs.namei_cost;
          let tcomps = split_path target in
          let start =
            if String.length target > 0 && target.[0] = '/' then root_ino else ino
          in
          namei_walk t ~path ~depth:(depth + 1) start (tcomps @ rest)
        | Regular | Directory -> namei_walk t ~path ~depth child rest)
    end

let namei t path =
  let components = split_path path in
  charge t (t.costs.Costs.namei_cost * max 1 (List.length components));
  namei_walk t ~path ~depth:0 root_ino components

let namei_parent t path =
  match List.rev (split_path path) with
  | [] -> err "%s: invalid path" path
  | base :: rev_dir ->
    let dir_path = "/" ^ String.concat "/" (List.rev rev_dir) in
    (namei t dir_path, base)

(* [path]'s directory, last component and inode, which must exist; the
   error names the [missing] kind of file. *)
let lookup t path ~missing =
  let dirino, base = namei_parent t path in
  match dir_find t (iget t dirino) base with
  | Some ino -> (dirino, base, ino)
  | None -> err "%s: no such %s" path missing

(* [path]'s directory, which must be one, and last component. *)
let parent_dir t path =
  let dirino, base = namei_parent t path in
  let dir = iget t dirino in
  if dir.Ondisk.ftype <> Directory then err "%s: parent not a directory" path;
  (dirino, dir, base)

(* As [parent_dir], for a name that must not exist yet. *)
let free_name t path =
  let dirino, dir, base = parent_dir t path in
  if dir_find t dir base <> None then err "%s: already exists" path;
  (dirino, base)

(* ---------------- fd bookkeeping ---------------- *)

let get_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some state -> state
  | None -> err "bad file descriptor %d" fd

let fresh_fd t ino =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd { fd_ino = ino; pos = 0; last_end = 0; pending = 0 };
  fd

(* ---------------- update daemon ---------------- *)

(* Flush the caches' dirty blocks through the write-behind pipeline when
   one is mounted — staging, adjacent-sector coalescing, group commit,
   with every ordering point announced via [Hooks.wb_event] — and fall
   back to direct asynchronous write-backs otherwise. Returns the number
   of blocks written back. *)
let wb_flush_caches ?(meta = true) t =
  match t.wb with
  | Some wb ->
    let via = Write_behind.stage wb in
    let n = Block_cache.flush_dirty ~via t.data ~sync:false () in
    let n = if meta then n + Block_cache.flush_dirty ~via t.meta ~sync:false () else n in
    ignore (Write_behind.flush wb);
    n
  | None ->
    let n = Block_cache.flush_dirty t.data ~sync:false () in
    if meta then n + Block_cache.flush_dirty t.meta ~sync:false () else n

let update_daemon_flush t =
  if not t.rules.daemon then 0
  else
    match t.journal with
    | None ->
      (* Under rio-idle, the paper's future-work variant, reliability does
         not need these writes (memory is safe), but trickling dirty blocks
         out during idle periods keeps later evictions from stalling. *)
      wb_flush_caches t
    | Some j ->
      (* Metadata goes through the journal; only file data rides the
         write-behind pipeline. The journal checkpoint's own metadata flush
         stays direct (it must land at the blocks' home sectors). *)
      let n = wb_flush_caches ~meta:false t in
      Journal.checkpoint j;
      n

let rec schedule_daemon_at t ~time =
  t.daemon_due <- time;
  t.daemon <-
    Some
      (Engine.schedule_at t.engine ~time (fun _ ->
           if t.alive then begin
             ignore (update_daemon_flush t);
             schedule_daemon t
           end))

and schedule_daemon t =
  schedule_daemon_at t ~time:(Engine.now t.engine + t.costs.Costs.update_interval)

(* ---------------- mount / unmount / crash ---------------- *)

let mount ~engine ~costs ~mem ~meta_alloc ~pool_alloc ~disk ~policy ~hooks ~wb_unordered =
  let rules = rules policy in
  let sb =
    let raw = Disk.read_sync disk ~sector:Ondisk.superblock_sector ~count:1 in
    Ondisk.read_superblock raw
  in
  let backed = rules.disk in
  let meta =
    Block_cache.create ~name:"buffer-cache" ~mem ~disk ~alloc:meta_alloc ~hooks
      ~sector_of_blkno:(fun base -> base)
      ~backed
  in
  let data =
    Block_cache.create ~name:"ubc" ~mem ~disk ~alloc:pool_alloc ~hooks
      ~sector_of_blkno:(fun blkno -> Ondisk.data_sector sb blkno)
      ~backed
  in
  let journal =
    match rules.meta with
    | Journal ->
      Some
        (Journal.create ~disk ~start_sector:sb.Ondisk.journal_start
           ~sectors:sb.Ondisk.journal_sectors)
    | Delayed | Sync -> None
  in
  let wb = if backed then Some (Write_behind.create ~disk ~hooks ~unordered:wb_unordered) else None in
  let t =
    {
      engine;
      costs;
      mem;
      disk;
      policy;
      rules;
      hooks;
      sb;
      meta;
      data;
      journal;
      wb;
      icache = Hashtbl.create 64;
      dir_cache = Hashtbl.create 64;
      fds = Hashtbl.create 16;
      next_fd = 3;
      ialloc_hint = 0;
      balloc_hint = 0;
      free_inodes = 0;
      free_blocks = 0;
      daemon = None;
      daemon_due = 0;
      alive = true;
    }
  in
  (match journal with
  | Some j ->
    Journal.set_on_checkpoint j (fun () -> ignore (Block_cache.flush_dirty t.meta ~sync:false ()));
    Journal.set_on_event j (fun ~label -> t.hooks.Hooks.wb_event ~label)
  | None -> ());
  if not backed then begin
    (* A memory file system starts empty: materialize the inode bitmap and
       an empty root directory in the (disk-less) cache. *)
    bitmap_set t ~start:sb.Ondisk.ibitmap_start (root_ino - 1) true;
    let root = Ondisk.empty_inode Directory in
    root.Ondisk.nlink <- 1;
    Hashtbl.replace t.icache root_ino root;
    iupdate t root_ino root ~structural:true
  end;
  (* Seed the free counters from the allocation bitmaps (a sector or two,
     faulted into pinned buffer-cache pages). *)
  t.free_inodes <- count_free t ~start:sb.Ondisk.ibitmap_start sb.Ondisk.inode_count;
  t.free_blocks <- count_free t ~start:sb.Ondisk.bbitmap_start sb.Ondisk.data_blocks;
  if rules.daemon then schedule_daemon t;
  (* Mark the volume dirty-mounted so an unclean shutdown is detectable. *)
  meta_update t ~cls:Class_super ~sector:Ondisk.superblock_sector ~len:Disk.sector_bytes
    (fun addr ->
      Phys_mem.blit_in t.mem addr (Ondisk.write_superblock { sb with Ondisk.clean = false }));
  if backed then begin
    let entry = meta_get t ~sector:Ondisk.superblock_sector ~pin:true in
    Block_cache.write_back t.meta entry ~sync:true
  end;
  t

let stop_daemon t =
  (match t.daemon with Some h -> Engine.cancel t.engine h | None -> ());
  t.daemon <- None;
  t.alive <- false

(* Write every dirty block back and wait for the disk. *)
let flush_and_drain t =
  ignore (Block_cache.flush_dirty t.data ~sync:false ());
  ignore (Block_cache.flush_dirty t.meta ~sync:false ());
  if t.rules.disk then Disk.drain t.disk

let remount_cold t =
  (* Flush everything, then drop the caches — the state after unmount +
     mount, without tearing down the daemon. *)
  flush_and_drain t;
  Block_cache.drop_all t.data;
  Block_cache.drop_all t.meta;
  Hashtbl.reset t.icache

let sync t =
  charge_syscall t;
  (* Rio's sync returns immediately (§2.3). Rio-idle honors sync as a
     durability barrier: idle-trickled blocks ride the write-behind
     pipeline and the barrier drains it, so the cold-recovery contract
     ("synced data survives without warm reboot") is checkable against
     the pipeline's orderings. *)
  if t.rules.daemon then begin
    ignore (wb_flush_caches t);
    Disk.drain t.disk
  end

let unmount t =
  (* Administrative shutdown: even Rio writes everything back (§2.3 provides
     an administrator switch for exactly this). *)
  flush_and_drain t;
  if t.rules.disk then
    Disk.poke t.disk ~sector:Ondisk.superblock_sector
      (Ondisk.write_superblock { t.sb with Ondisk.clean = true });
  stop_daemon t

let crash t =
  Disk.crash t.disk;
  stop_daemon t

(* ---------------- inode lifecycle ---------------- *)

(* Allocate an inode of [ftype] and enter it as [base] in [dirino]. *)
let new_inode t (dirino, base) ftype =
  let ino = ialloc t in
  let inode = Ondisk.empty_inode ftype in
  inode.Ondisk.nlink <- 1;
  inode.Ondisk.mtime <- Engine.now t.engine;
  Hashtbl.replace t.icache ino inode;
  iupdate t ino inode ~structural:true;
  dir_add t dirino base ino;
  ino

(* Free [inode]'s blocks from file block [from] on, dropping each from the
   cache that holds it (the buffer cache for a directory's). Returns
   whether any block was freed. *)
let free_blocks ?(from = 0) t inode =
  let freed = ref false in
  Array.iteri
    (fun i ptr ->
      if i >= from && ptr <> 0 then begin
        (match inode.Ondisk.ftype with
        | Directory ->
          Block_cache.invalidate t.meta ~blkno:(sector_page_base (dir_block_sector t (ptr - 1)))
        | Regular | Symlink -> Block_cache.invalidate t.data ~blkno:(ptr - 1));
        bfree t (ptr - 1);
        inode.Ondisk.blocks.(i) <- 0;
        freed := true
      end)
    inode.Ondisk.blocks;
  !freed

(* Free an inode whose last name is gone, with its blocks. *)
let release t ino inode =
  ignore (free_blocks t inode : bool);
  iclear t ino;
  ifree t ino

(* Drop one name of a non-directory; the last one releases it. *)
let drop_link t ino inode =
  if inode.Ondisk.nlink > 1 then begin
    inode.Ondisk.nlink <- inode.Ondisk.nlink - 1;
    iupdate t ino inode ~structural:true
  end
  else release t ino inode

(* ---------------- file operations ---------------- *)

let do_creat t path =
  let dirino, dir, base = parent_dir t path in
  match dir_find t dir base with
  | Some existing ->
    let inode = iget t existing in
    if inode.Ondisk.ftype <> Regular then err "%s: exists and is a directory" path;
    (* Truncate. *)
    ignore (free_blocks t inode : bool);
    inode.Ondisk.size <- 0;
    inode.Ondisk.mtime <- Engine.now t.engine;
    iupdate t existing inode ~structural:true;
    existing
  | None -> new_inode t (dirino, base) Regular

let create t path =
  charge_syscall t;
  fresh_fd t (do_creat t path)

let open_file t path =
  charge_syscall t;
  let ino = namei t path in
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Regular then err "%s: not a regular file" path;
  fresh_fd t ino

let fd_size t fd =
  let state = get_fd t fd in
  (iget t state.fd_ino).Ondisk.size

let seek t fd pos =
  let state = get_fd t fd in
  if pos < 0 then err "seek: negative offset";
  state.pos <- pos

let do_pwrite t state ~offset data =
  if offset < 0 then err "write: negative offset";
  let ino = state.fd_ino in
  let inode = iget t ino in
  (* Symlink targets are written through this path by [symlink]; public
     file descriptors can only reach regular files. *)
  if inode.Ondisk.ftype = Directory then err "write: not a regular file";
  let len = Bytes.length data in
  if len > 0 then begin
    if offset + len > ndirect * block_bytes then err "write: file would exceed maximum size";
    charge_copy t len;
    let old_size = inode.Ondisk.size in
    let new_size = max old_size (offset + len) in
    iter_blocks ~offset ~len (fun ~bi ~in_block ~pos ~chunk ->
        let whole = in_block = 0 && (chunk = block_bytes || offset + pos + chunk >= old_size) in
        let fill = if whole then Block_cache.Zero else Block_cache.From_disk in
        match data_block t ino inode bi ~alloc:true ~fill with
        | Some entry ->
          store_data t entry ~valid:(min block_bytes (new_size - (bi * block_bytes)))
            (fun page -> t.hooks.Hooks.copy_in data pos ~paddr:(page + in_block) ~len:chunk)
        | None -> assert false);
    inode.Ondisk.size <- new_size;
    inode.Ondisk.mtime <- Engine.now t.engine;
    (* Block-allocation pointer updates are asynchronous in UFS (only
       namespace operations are synchronous, Ganger94), so a write that
       allocates still updates its inode the delayed way. *)
    iupdate t ino inode ~structural:false;
    (match t.rules.on_write with
    | Sync -> force_file t ino
    | Async ->
      (* The cluster rule: flush after 64 KB or a non-sequential write. *)
      let sequential = offset = state.last_end in
      state.pending <- state.pending + len;
      if (not sequential) || state.pending >= 64 * 1024 then begin
        flush_file_data t ino ~sync:false;
        state.pending <- 0
      end
    | Never -> ());
    state.last_end <- offset + len
  end

let pwrite t fd ~offset data =
  charge_syscall t;
  do_pwrite t (get_fd t fd) ~offset data

let write t fd data =
  charge_syscall t;
  let state = get_fd t fd in
  do_pwrite t state ~offset:state.pos data;
  state.pos <- state.pos + Bytes.length data

let do_pread t state ~offset ~len = read_ino_data t state.fd_ino ~offset ~len

let pread t fd ~offset ~len =
  charge_syscall t;
  do_pread t (get_fd t fd) ~offset ~len

let read t fd ~len =
  charge_syscall t;
  let state = get_fd t fd in
  let out = do_pread t state ~offset:state.pos ~len in
  state.pos <- state.pos + Bytes.length out;
  out

let fsync t fd =
  charge_syscall t;
  let state = get_fd t fd in
  (* Rio's fsync returns immediately (§2.3). *)
  if not t.rules.trusts_memory then force_file t state.fd_ino

let close t fd =
  charge_syscall t;
  let state = get_fd t fd in
  (match t.rules.on_close with
  | Sync -> force_file t state.fd_ino
  | Async ->
    (* BSD-style: delayed partial blocks go out (asynchronously) at close. *)
    flush_file_data t state.fd_ino ~sync:false
  | Never -> ());
  Hashtbl.remove t.fds fd

(* ---------------- namespace operations ---------------- *)

let mkdir t path =
  charge_syscall t;
  ignore (new_inode t (free_name t path) Directory : int)

let link t existing path =
  charge_syscall t;
  let ino = namei t existing in
  let inode = iget t ino in
  if inode.Ondisk.ftype = Directory then err "%s: hard links to directories are not allowed" path;
  let dirino, base = free_name t path in
  inode.Ondisk.nlink <- inode.Ondisk.nlink + 1;
  iupdate t ino inode ~structural:true;
  dir_add t dirino base ino

let unlink t path =
  charge_syscall t;
  let dirino, base, ino = lookup t path ~missing:"file" in
  let inode = iget t ino in
  if inode.Ondisk.ftype = Directory then err "%s: is a directory (use rmdir)" path;
  dir_remove t dirino base;
  drop_link t ino inode

let rmdir t path =
  charge_syscall t;
  let dirino, base, ino = lookup t path ~missing:"directory" in
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Directory then err "%s: not a directory" path;
  if dir_entries t inode <> [] then err "%s: directory not empty" path;
  dir_remove t dirino base;
  release t ino inode

let rename t src dst =
  charge_syscall t;
  let sdir, sbase, ino = lookup t src ~missing:"file" in
  let ddir, dbase = namei_parent t dst in
  (match dir_find t (iget t ddir) dbase with
  | Some existing ->
    let einode = iget t existing in
    if einode.Ondisk.ftype = Directory then err "%s: target exists and is a directory" dst;
    dir_remove t ddir dbase;
    drop_link t existing einode
  | None -> ());
  (* Crash atomicity: when source and destination share a directory and the
     renamed entry's block can absorb the name change, removal and insertion
     collapse into ONE block rewrite — a single shadow-wrapped metadata
     update, so a crash anywhere leaves either the old name or the new one.
     Otherwise insert before removing, so the file is reachable under at
     least one name at every intermediate point. *)
  let combined =
    sdir = ddir
    &&
    let rec try_blocks = function
      | [] -> false
      | (_, blkno) :: rest ->
        let db = dir_read_block t blkno in
        if not (Hashtbl.mem db.db_index sbase) then try_blocks rest
        else begin
          let kept = List.remove_assoc sbase db.db_entries in
          let used = db.db_used - Ondisk.dir_entry_bytes sbase in
          used + Ondisk.dir_entry_bytes dbase <= Ondisk.dir_block_capacity
          && begin
               dir_write_block t blkno (kept @ [ (dbase, ino) ]);
               true
             end
        end
    in
    try_blocks (dir_blocks (iget t sdir))
  in
  if not combined then begin
    dir_add t ddir dbase ino;
    dir_remove t sdir sbase
  end

let readdir t path =
  charge_syscall t;
  let ino = namei t path in
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Directory then err "%s: not a directory" path;
  List.sort compare (List.map fst (dir_entries t inode))

let stat_of ino (inode : Ondisk.inode) =
  {
    st_ino = ino;
    st_ftype = inode.Ondisk.ftype;
    st_size = inode.Ondisk.size;
    st_nlink = inode.Ondisk.nlink;
    st_mtime = inode.Ondisk.mtime;
  }

let stat t path =
  charge_syscall t;
  let ino = namei t path in
  stat_of ino (iget t ino)

let exists t path =
  match namei t path with
  | _ -> true
  | exception Fs_error _ -> false

let read_file t path =
  let fd = open_file t path in
  let size = fd_size t fd in
  let data = pread t fd ~offset:0 ~len:size in
  close t fd;
  data

let write_file t path data =
  let fd = create t path in
  write t fd data;
  close t fd

(* ---------------- statfs ---------------- *)

type fs_stats = {
  blocks_total : int;
  blocks_free : int;
  inodes_total : int;
  inodes_free : int;
}

let statfs t =
  charge_syscall t;
  (* Inodes first: the order the bitmap pages are looked up in is visible
     in the meta cache's LRU ticks. *)
  let inodes_free = count_free t ~start:t.sb.Ondisk.ibitmap_start t.sb.Ondisk.inode_count in
  let blocks_free = count_free t ~start:t.sb.Ondisk.bbitmap_start t.sb.Ondisk.data_blocks in
  {
    blocks_total = t.sb.Ondisk.data_blocks;
    blocks_free;
    inodes_total = t.sb.Ondisk.inode_count;
    inodes_free;
  }

let free_counts t = (t.free_inodes, t.free_blocks)

(* ---------------- symbolic links ---------------- *)

let symlink t ~target path =
  charge_syscall t;
  if String.length target = 0 || String.length target > ndirect * block_bytes then
    err "symlink: invalid target length";
  let ino = new_inode t (free_name t path) Symlink in
  (* The target string is the link's data (stored like file content, read
     through the cache as the paper's symlinks are). *)
  let state = { fd_ino = ino; pos = 0; last_end = 0; pending = 0 } in
  do_pwrite t state ~offset:0 (Bytes.of_string target)

let readlink t path =
  charge_syscall t;
  let _, _, ino = lookup t path ~missing:"file or directory" in
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Symlink then err "%s: not a symbolic link" path;
  Bytes.to_string (read_ino_data t ino ~offset:0 ~len:inode.Ondisk.size)

let lstat t path =
  charge_syscall t;
  let _, _, ino = lookup t path ~missing:"file or directory" in
  stat_of ino (iget t ino)

(* ---------------- truncate ---------------- *)

let truncate t path new_size =
  charge_syscall t;
  let ino = namei t path in
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Regular then err "%s: not a regular file" path;
  if new_size < 0 || new_size > ndirect * block_bytes then err "truncate: size out of range";
  let old_size = inode.Ondisk.size in
  if new_size <> old_size then begin
    (* Free whole blocks beyond the new end. *)
    let structural =
      new_size < old_size && free_blocks ~from:((new_size + block_bytes - 1) / block_bytes) t inode
    in
    (* Zero the boundary block's bytes past the kept size so later growth
       reveals zeros, not stale data. *)
    let keep = min new_size old_size in
    let bi = keep / block_bytes in
    let in_block = keep mod block_bytes in
    if in_block > 0 && bi < ndirect && inode.Ondisk.blocks.(bi) <> 0 then begin
      match data_block t ino inode bi ~alloc:false ~fill:Block_cache.From_disk with
      | Some entry ->
        store_data t entry ~valid:(min block_bytes (new_size - (bi * block_bytes))) (fun page ->
            Phys_mem.fill t.mem (page + in_block) ~len:(block_bytes - in_block) '\000')
      | None -> ()
    end;
    inode.Ondisk.size <- new_size;
    inode.Ondisk.mtime <- Engine.now t.engine;
    iupdate t ino inode ~structural;
    (* A write-through file system forces the file, whichever call it
       writes through on. *)
    match (t.rules.on_write, t.rules.on_close) with
    | Sync, _ | _, Sync -> force_file t ino
    | (Never | Async), (Never | Async) -> ()
  end

(* ---------------- warm-reboot restore ---------------- *)

let write_by_ino t ~ino ~offset data =
  let inode = iget t ino in
  if inode.Ondisk.ftype <> Regular then err "write_by_ino: inode %d not a regular file" ino;
  let len = min (Bytes.length data) (max 0 (inode.Ondisk.size - offset)) in
  iter_blocks ~offset ~len (fun ~bi ~in_block ~pos ~chunk ->
      match data_block t ino inode bi ~alloc:false ~fill:Block_cache.Zero with
      | Some entry ->
        store_data t entry ~valid:(min block_bytes (inode.Ondisk.size - (bi * block_bytes)))
          (fun page -> t.hooks.Hooks.copy_in data pos ~paddr:(page + in_block) ~len:chunk)
      | None -> () (* hole: nothing to restore *))

(* ---------------- world-template rewind ---------------- *)

(* Host-side file-system state frozen with the world template. Simulated
   state (cache pages, on-disk metadata bytes) rewinds with the memory
   snapshot and the disk checkpoint; this captures everything the Fs
   record keeps outside simulated memory: the block-cache population,
   the in-core inode and descriptor tables, allocator hints and free
   counters, and the update daemon's next due time. The directory decode
   cache is NOT captured — it is version-keyed and simply refills. *)
type checkpoint = {
  ck_meta : Block_cache.checkpoint;
  ck_data : Block_cache.checkpoint;
  ck_journal : Journal.state option;
  ck_wb : Write_behind.state option;
  ck_icache : (int * Ondisk.inode) list;
  ck_fds : (int * fd_state) list;
  ck_next_fd : int;
  ck_ialloc_hint : int;
  ck_balloc_hint : int;
  ck_free_inodes : int;
  ck_free_blocks : int;
  ck_daemon : bool;
  ck_daemon_due : int;
}

let copy_inode (i : Ondisk.inode) = { i with Ondisk.blocks = Array.copy i.Ondisk.blocks }

let checkpoint t =
  {
    ck_meta = Block_cache.checkpoint t.meta;
    ck_data = Block_cache.checkpoint t.data;
    ck_journal = Option.map Journal.save t.journal;
    ck_wb = Option.map Write_behind.save t.wb;
    ck_icache = Hashtbl.fold (fun ino i acc -> (ino, copy_inode i) :: acc) t.icache [];
    ck_fds = Hashtbl.fold (fun fd st acc -> (fd, { st with pos = st.pos }) :: acc) t.fds [];
    ck_next_fd = t.next_fd;
    ck_ialloc_hint = t.ialloc_hint;
    ck_balloc_hint = t.balloc_hint;
    ck_free_inodes = t.free_inodes;
    ck_free_blocks = t.free_blocks;
    ck_daemon = t.daemon <> None;
    ck_daemon_due = t.daemon_due;
  }

(* Call after the engine queue has been cleared and rewound: a live
   daemon is re-scheduled at its checkpointed absolute due time. *)
let restore t ck =
  Block_cache.restore t.meta ck.ck_meta;
  Block_cache.restore t.data ck.ck_data;
  (match (t.journal, ck.ck_journal) with
  | Some j, Some s -> Journal.restore j s
  | None, None -> ()
  | _ -> invalid_arg "Fs.restore: journal presence mismatch");
  (match (t.wb, ck.ck_wb) with
  | Some wb, Some s -> Write_behind.restore wb s
  | None, None -> ()
  | _ -> invalid_arg "Fs.restore: write-behind presence mismatch");
  Hashtbl.reset t.icache;
  List.iter (fun (ino, i) -> Hashtbl.replace t.icache ino (copy_inode i)) ck.ck_icache;
  Hashtbl.reset t.dir_cache;
  Hashtbl.reset t.fds;
  List.iter (fun (fd, st) -> Hashtbl.replace t.fds fd { st with pos = st.pos }) ck.ck_fds;
  t.next_fd <- ck.ck_next_fd;
  t.ialloc_hint <- ck.ck_ialloc_hint;
  t.balloc_hint <- ck.ck_balloc_hint;
  t.free_inodes <- ck.ck_free_inodes;
  t.free_blocks <- ck.ck_free_blocks;
  t.alive <- true;
  t.daemon <- None;
  if ck.ck_daemon then schedule_daemon_at t ~time:ck.ck_daemon_due

(* ---------------- the uniform syscall entry ---------------- *)

(* One decoded representation of the whole syscall surface. The task
   scheduler and the workload interpreter dispatch through [Syscall.run],
   so "what operation is this, does it mutate, what is it called" is
   answered in exactly one place; [run] calls the per-op functions above,
   which direct callers use as they are. *)

module Syscall = struct
  type call =
    | Creat of string
    | Open of string
    | Close of fd
    | Read of { fd : fd; len : int }
    | Write of { fd : fd; data : bytes }
    | Pread of { fd : fd; offset : int; len : int }
    | Pwrite of { fd : fd; offset : int; data : bytes }
    | Seek of fd * int
    | Fsync of fd
    | Mkdir of string
    | Rmdir of string
    | Link of { existing : string; path : string }
    | Unlink of string
    | Rename of { src : string; dst : string }
    | Readdir of string
    | Stat of string
    | Lstat of string
    | Exists of string
    | Symlink of { target : string; path : string }
    | Readlink of string
    | Truncate of string * int
    | Read_file of string
    | Write_file of { path : string; data : bytes }
    | Sync

  type result =
    | Unit
    | Fd of fd
    | Data of bytes
    | Names of string list
    | Stat_r of stat
    | Bool of bool
    | Path of string

  let name = function
    | Creat _ -> "creat"
    | Open _ -> "open"
    | Close _ -> "close"
    | Read _ -> "read"
    | Write _ -> "write"
    | Pread _ -> "pread"
    | Pwrite _ -> "pwrite"
    | Seek _ -> "seek"
    | Fsync _ -> "fsync"
    | Mkdir _ -> "mkdir"
    | Rmdir _ -> "rmdir"
    | Link _ -> "link"
    | Unlink _ -> "unlink"
    | Rename _ -> "rename"
    | Readdir _ -> "readdir"
    | Stat _ -> "stat"
    | Lstat _ -> "lstat"
    | Exists _ -> "exists"
    | Symlink _ -> "symlink"
    | Readlink _ -> "readlink"
    | Truncate _ -> "truncate"
    | Read_file _ -> "read-file"
    | Write_file _ -> "write-file"
    | Sync -> "sync"

  (* Whether the call can mutate shared file-system state (cache pages,
     inodes, directories, bitmaps). Seek only moves the caller's own
     cursor; Close and Fsync can flush under the write-through policies,
     so they count as mutating. *)
  let mutates = function
    | Read _ | Pread _ | Seek _ | Readdir _ | Stat _ | Lstat _ | Exists _ | Readlink _
    | Read_file _ ->
      false
    | Creat _ | Open _ | Close _ | Write _ | Pwrite _ | Fsync _ | Mkdir _ | Rmdir _ | Link _
    | Unlink _ | Rename _ | Symlink _ | Truncate _ | Write_file _ | Sync ->
      true

  (* [Open] allocates an fd and can trigger cache fills (registry-visible
     page mappings), so it is conservatively mutating. *)

  let run t call =
    match call with
    | Creat path -> Fd (create t path)
    | Open path -> Fd (open_file t path)
    | Close fd ->
      close t fd;
      Unit
    | Read { fd; len } -> Data (read t fd ~len)
    | Write { fd; data } ->
      write t fd data;
      Unit
    | Pread { fd; offset; len } -> Data (pread t fd ~offset ~len)
    | Pwrite { fd; offset; data } ->
      pwrite t fd ~offset data;
      Unit
    | Seek (fd, pos) ->
      seek t fd pos;
      Unit
    | Fsync fd ->
      fsync t fd;
      Unit
    | Mkdir path ->
      mkdir t path;
      Unit
    | Rmdir path ->
      rmdir t path;
      Unit
    | Link { existing; path } ->
      link t existing path;
      Unit
    | Unlink path ->
      unlink t path;
      Unit
    | Rename { src; dst } ->
      rename t src dst;
      Unit
    | Readdir path -> Names (readdir t path)
    | Stat path -> Stat_r (stat t path)
    | Lstat path -> Stat_r (lstat t path)
    | Exists path -> Bool (exists t path)
    | Symlink { target; path } ->
      symlink t ~target path;
      Unit
    | Readlink path -> Path (readlink t path)
    | Truncate (path, size) ->
      truncate t path size;
      Unit
    | Read_file path -> Data (read_file t path)
    | Write_file { path; data } ->
      write_file t path data;
      Unit
    | Sync ->
      sync t;
      Unit

  let fd_exn = function Fd fd -> fd | _ -> err "Syscall: expected an fd result"
  let data_exn = function Data b -> b | _ -> err "Syscall: expected a data result"
  let names_exn = function Names l -> l | _ -> err "Syscall: expected a name-list result"
  let stat_exn = function Stat_r s -> s | _ -> err "Syscall: expected a stat result"
  let bool_exn = function Bool b -> b | _ -> err "Syscall: expected a bool result"
  let path_exn = function Path p -> p | _ -> err "Syscall: expected a path result"
end
