module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout
module Disk = Rio_disk.Disk
module Engine = Rio_sim.Engine
module Fs = Rio_fs.Fs
module Fsck = Rio_fs.Fsck
module Ondisk = Rio_fs.Ondisk

type verify = {
  intact : int;
  mismatched : int;
  changing : int;
}

type report = {
  registry_entries : int;
  corrupt_registry_slots : int;
  swap_dumped_bytes : int;
  swap_truncated_bytes : int;
  meta_restored : int;
  meta_skipped : int;
  data_restored : int;
  data_failed : int;
  meta_verify : verify;
  data_verify : verify;
  fsck : Fsck.report;
  duration_us : int;
}

let capture mem = Phys_mem.dump mem

(* The crash-time memory image the recovery reads from. The reference
   path materializes the full dump; the fast path reads through a
   copy-on-write snapshot — O(1) to take, and recovery's own writes
   (registry scrub, buffer restores, the warm kernel boot) COW at most
   the pages they touch. Both serve byte-identical contents. *)
type view =
  | Full_image of bytes
  | Snap_view of { vmem : Phys_mem.t; snap : Phys_mem.snapshot }

let view_size = function
  | Full_image b -> Bytes.length b
  | Snap_view { vmem; _ } -> Phys_mem.size vmem

let view_sub v pos len =
  match v with
  | Full_image b -> Bytes.sub b pos len
  | Snap_view { vmem; snap } -> Phys_mem.snap_blit_out vmem snap pos ~len

let view_crc v pos ~len =
  match v with
  | Full_image b -> Rio_util.Checksum.crc32 b ~pos ~len
  | Snap_view { vmem; snap } -> Phys_mem.snap_checksum_range vmem snap pos ~len

let read_superblock_opt disk =
  match Ondisk.read_superblock (Disk.peek disk ~sector:Ondisk.superblock_sector) with
  | sb -> Some sb
  | exception Rio_fs.Fs_types.Fs_error _ -> None

let dump_chunk = 128 * 1024

(* The pages of [pos, pos+n) the snapshot cannot prove all-zero, coalesced
   into runs and read out of the view as [(sector offset within the
   chunk, bytes)] extents. *)
let nonzero_extents vmem snap pos n =
  let page = Phys_mem.page_size and last = pos + n in
  let zero a = Phys_mem.snap_page_is_zero vmem snap (a / page) in
  let next a = min last (((a / page) + 1) * page) in
  let rec run_end b = if b < last && not (zero b) then run_end (next b) else b in
  let rec go a acc =
    if a >= last then List.rev acc
    else if zero a then go (next a) acc
    else begin
      let b = run_end (next a) in
      go b (((a - pos) / Disk.sector_bytes, Phys_mem.snap_blit_out vmem snap a ~len:(b - a)) :: acc)
    end
  in
  go pos []

let dump_to_swap_view ~disk ~view =
  match read_superblock_opt disk with
  | None -> (0, view_size view)
  | Some sb ->
    let swap_bytes = sb.Ondisk.swap_sectors * Disk.sector_bytes in
    let len = min (view_size view) swap_bytes in
    (* Stream in 128 KB synchronous chunks — one long sequential write.
       Every chunk is one request on both paths (same sectors, same
       lengths, same simulated time). The reference path writes the full
       image; the fast path hands {!Disk.write_sync_sparse} only the
       pages the snapshot cannot prove zero. *)
    let chunks write =
      let pos = ref 0 in
      while !pos < len do
        let n = min dump_chunk (len - !pos) in
        write ~sector:(sb.Ondisk.swap_start + (!pos / Disk.sector_bytes)) !pos n;
        pos := !pos + n
      done
    in
    (match view with
    | Full_image image ->
      let buf = Bytes.create (min dump_chunk len) in
      chunks (fun ~sector pos n ->
          let b = if n = Bytes.length buf then buf else Bytes.create n in
          Bytes.blit image pos b 0 n;
          Disk.write_sync disk ~sector b)
    | Snap_view { vmem; snap } ->
      chunks (fun ~sector pos n ->
          Disk.write_sync_sparse disk ~sector ~count:(n / Disk.sector_bytes)
            (nonzero_extents vmem snap pos n)));
    (len, view_size view - len)

let dump_to_swap ~disk ~image = dump_to_swap_view ~disk ~view:(Full_image image)

let parse_registry_view ~view ~layout =
  let region = Layout.region layout Layout.Registry in
  match view with
  | Full_image image -> Registry.parse_image ~image ~region ~mem_bytes:(Bytes.length image)
  | Snap_view { vmem; snap } ->
    let slice = Phys_mem.snap_blit_out vmem snap region.Layout.base ~len:region.Layout.bytes in
    Registry.parse_slice ~slice ~region ~mem_bytes:(Phys_mem.size vmem)

let parse_registry ~image ~layout = parse_registry_view ~view:(Full_image image) ~layout

(* Read from the entry's current pointer: mid-shadow-update entries point
   at the consistent pre-image (§2.3). *)
let entry_in_view view (e : Registry.entry) =
  e.Registry.paddr + e.Registry.size <= view_size view

let entry_image_view view (e : Registry.entry) =
  if entry_in_view view e then Some (view_sub view e.Registry.paddr e.Registry.size) else None

let verify_entries_view ~view entries =
  List.fold_left
    (fun acc (e : Registry.entry) ->
      if e.Registry.changing then { acc with changing = acc.changing + 1 }
      else if not (entry_in_view view e) then { acc with mismatched = acc.mismatched + 1 }
      else
        let actual = view_crc view e.Registry.paddr ~len:e.Registry.size in
        if actual = e.Registry.checksum then { acc with intact = acc.intact + 1 }
        else { acc with mismatched = acc.mismatched + 1 })
    { intact = 0; mismatched = 0; changing = 0 }
    entries

let verify_entries ~image entries = verify_entries_view ~view:(Full_image image) entries

let split_entries entries =
  List.partition (fun (e : Registry.entry) -> e.Registry.kind = Registry.Meta_buffer) entries

let restore_metadata_view ~disk ~view entries =
  let sb = read_superblock_opt disk in
  let restored = ref 0 and skipped = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      (* Metadata blkno is an absolute sector base; validate it against the
         device and keep it away from the superblock itself. *)
      let plausible =
        e.Registry.blkno > 0
        && e.Registry.blkno + Rio_fs.Fs_types.sectors_per_block <= Disk.capacity_sectors disk
        && (match sb with
           | Some sb -> e.Registry.blkno >= sb.Ondisk.ibitmap_start
           | None -> true)
      in
      match entry_image_view view e with
      | Some bytes when plausible ->
        Disk.write_sync disk ~sector:e.Registry.blkno bytes;
        incr restored
      | Some _ | None -> incr skipped)
    entries;
  (!restored, !skipped)

let restore_metadata ~disk ~image entries =
  restore_metadata_view ~disk ~view:(Full_image image) entries

let restore_data_view ~fs ~view entries =
  let restored = ref 0 and failed = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      match entry_image_view view e with
      | None -> incr failed
      | Some bytes ->
        (match Fs.write_by_ino fs ~ino:e.Registry.ino ~offset:e.Registry.offset bytes with
        | () -> incr restored
        | exception Rio_fs.Fs_types.Fs_error _ -> incr failed))
    entries;
  (!restored, !failed)

let restore_data ~fs ~image entries = restore_data_view ~fs ~view:(Full_image image) entries

let perform ~mem ~disk ~layout ~engine ~reboot =
  (* The fast/reference choice rides the global {!Rio_util.Fastpath} knob
     (set once, before any domains spawn) so the nine call sites need no
     plumbing; both paths produce byte-identical recoveries. *)
  let fast = Rio_util.Fastpath.on () in
  let module Trace = Rio_obs.Trace in
  let obs = Engine.obs engine in
  let phase name f =
    if Trace.enabled obs then begin
      let start_us = Engine.now engine in
      let r = f () in
      Trace.emit obs Trace.Rio
        (Trace.Phase { name; start_us; end_us = Engine.now engine });
      r
    end
    else f ()
  in
  let t0 = Engine.now engine in
  let view =
    phase "warm-reboot: capture" (fun () ->
        if fast then Snap_view { vmem = mem; snap = Phys_mem.snapshot mem }
        else Full_image (capture mem))
  in
  Fun.protect
    ~finally:(fun () ->
      match view with
      | Snap_view { vmem; snap } -> Phys_mem.release vmem snap
      | Full_image _ -> ())
    (fun () ->
      let swap_dumped_bytes, swap_truncated_bytes =
        phase "warm-reboot: dump to swap" (fun () -> dump_to_swap_view ~disk ~view)
      in
      if Trace.enabled obs then
        Trace.emit obs Trace.Rio
          (Trace.Swap_dump { dumped = swap_dumped_bytes; truncated = swap_truncated_bytes });
      let parsed =
        phase "warm-reboot: parse registry" (fun () -> parse_registry_view ~view ~layout)
      in
      let meta_entries, data_entries = split_entries parsed.Registry.entries in
      let meta_verify, data_verify =
        phase "warm-reboot: verify checksums" (fun () ->
            (verify_entries_view ~view meta_entries, verify_entries_view ~view data_entries))
      in
      let meta_restored, meta_skipped =
        phase "warm-reboot: restore metadata" (fun () ->
            restore_metadata_view ~disk ~view meta_entries)
      in
      let fsck = phase "warm-reboot: fsck" (fun () -> Fsck.run ~disk) in
      let fs = phase "warm-reboot: reboot" (fun () -> reboot ()) in
      let data_restored, data_failed =
        phase "warm-reboot: restore data" (fun () ->
            if fsck.Fsck.unrecoverable then (0, List.length data_entries)
            else restore_data_view ~fs ~view data_entries)
      in
      {
        registry_entries = List.length parsed.Registry.entries;
        corrupt_registry_slots = parsed.Registry.corrupt_slots;
        swap_dumped_bytes;
        swap_truncated_bytes;
        meta_restored;
        meta_skipped;
        data_restored;
        data_failed;
        meta_verify;
        data_verify;
        fsck;
        duration_us = Engine.now engine - t0;
      })
