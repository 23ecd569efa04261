module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout

type kind = Meta_buffer | Data_buffer

type entry = {
  paddr : int;
  home_paddr : int;
  dev : int;
  ino : int;
  offset : int;
  size : int;
  blkno : int;
  kind : kind;
  changing : bool;
  checksum : int;
}

let entry_bytes = 40

(* Slot layout: paddr u64 @0, home u64 @8, ino u32 @16, offset u32 @20,
   size u32 @24, blkno u32 @28, dev u16 @32, kind u8 @34 (0 free / 1 meta /
   2 data), changing u8 @35, checksum u32 @36. *)

type t = {
  mem : Phys_mem.t;
  base : int;
  capacity : int;
  index : (int, int) Hashtbl.t; (* home_paddr -> slot *)
  (* Free slots: released slots are reused most-recent-first, then the
     never-used slots [fresh, capacity) in order. Released slots are all
     below [fresh], so slots are handed out exactly as by a LIFO free list
     seeded with 0..capacity-1 — the slot numbers, and so the registry's
     bytes in memory, are part of every recorded output. *)
  mutable released : int list;
  mutable fresh : int;
  mutable live : int;
  scratch : bytes; (* one slot, reused by read_slot's hot path *)
}

let create ~mem ~region =
  let capacity = region.Layout.bytes / entry_bytes in
  Phys_mem.fill mem region.Layout.base ~len:(capacity * entry_bytes) '\000';
  {
    mem;
    base = region.Layout.base;
    capacity;
    index = Hashtbl.create 256;
    released = [];
    fresh = 0;
    live = 0;
    scratch = Bytes.create entry_bytes;
  }

let capacity t = t.capacity
let live_entries t = t.live

let slot_addr t slot = t.base + (slot * entry_bytes)

let kind_tag = function Meta_buffer -> 1 | Data_buffer -> 2

let write_slot t slot e =
  (* Serialize into the scratch buffer and land the slot with one blit:
     same final bytes as field-by-field stores, one write-path pass. *)
  let img = t.scratch in
  Bytes.set_int64_le img 0 (Int64.of_int e.paddr);
  Bytes.set_int64_le img 8 (Int64.of_int e.home_paddr);
  Bytes.set_int32_le img 16 (Int32.of_int e.ino);
  Bytes.set_int32_le img 20 (Int32.of_int e.offset);
  Bytes.set_int32_le img 24 (Int32.of_int e.size);
  Bytes.set_int32_le img 28 (Int32.of_int e.blkno);
  Bytes.set img 32 (Char.chr (e.dev land 0xFF));
  Bytes.set img 33 (Char.chr ((e.dev lsr 8) land 0xFF));
  Bytes.set img 34 (Char.chr (kind_tag e.kind));
  Bytes.set img 35 (if e.changing then '\001' else '\000');
  Bytes.set_int32_le img 36 (Int32.of_int e.checksum);
  Phys_mem.blit_from t.mem (slot_addr t slot) img ~pos:0 ~len:entry_bytes

let clear_slot t slot =
  Phys_mem.fill t.mem (slot_addr t slot) ~len:entry_bytes '\000'

let read_field_u64 img pos = Int64.to_int (Bytes.get_int64_le img pos)
let read_field_u32 img pos = Int32.to_int (Bytes.get_int32_le img pos) land 0xFFFF_FFFF

(* A free slot is all zeros: five 64-bit words. *)
let slot_is_zero img pos =
  Bytes.get_int64_le img pos = 0L
  && Bytes.get_int64_le img (pos + 8) = 0L
  && Bytes.get_int64_le img (pos + 16) = 0L
  && Bytes.get_int64_le img (pos + 24) = 0L
  && Bytes.get_int64_le img (pos + 32) = 0L

let read_slot_image img base slot =
  let pos = base + (slot * entry_bytes) in
  let kind_byte = Char.code (Bytes.get img (pos + 34)) in
  if slot_is_zero img pos then `Free
  else if kind_byte <> 1 && kind_byte <> 2 then `Corrupt
  else
    `Entry
      {
        paddr = read_field_u64 img pos;
        home_paddr = read_field_u64 img (pos + 8);
        ino = read_field_u32 img (pos + 16);
        offset = read_field_u32 img (pos + 20);
        size = read_field_u32 img (pos + 24);
        blkno = read_field_u32 img (pos + 28);
        dev = Char.code (Bytes.get img (pos + 32)) lor (Char.code (Bytes.get img (pos + 33)) lsl 8);
        kind = (if kind_byte = 1 then Meta_buffer else Data_buffer);
        changing = Char.code (Bytes.get img (pos + 35)) <> 0;
        checksum = read_field_u32 img (pos + 36);
      }

(* Read a live slot back from simulated memory (normal operation; trusted
   because normal operation only reads slots it wrote). *)
let read_slot t slot =
  let a = slot_addr t slot in
  Phys_mem.blit_into t.mem a t.scratch ~pos:0 ~len:entry_bytes;
  match read_slot_image t.scratch 0 0 with
  | `Entry e -> Some e
  | `Free | `Corrupt -> None

let find t ~home_paddr =
  match Hashtbl.find_opt t.index home_paddr with
  | None -> None
  | Some slot -> read_slot t slot

let register t ~home_paddr ~dev ~ino ~offset ~size ~blkno ~kind ~checksum =
  (* The slot stores dev in 16 bits; silently truncating a wider value
     would register the buffer under the wrong device and make the
     warm-reboot restore it to the wrong volume. *)
  if dev < 0 || dev > 0xFFFF then
    Rio_fs.Fs_types.err "registry: dev %d out of 16-bit range" dev;
  let entry =
    { paddr = home_paddr; home_paddr; dev; ino; offset; size; blkno; kind;
      changing = false; checksum }
  in
  match Hashtbl.find_opt t.index home_paddr with
  | Some slot ->
    (* Keep the current paddr (a shadow redirect may be in flight). *)
    let paddr = match read_slot t slot with Some e -> e.paddr | None -> home_paddr in
    write_slot t slot { entry with paddr }
  | None ->
    let slot =
      match t.released with
      | slot :: rest ->
        t.released <- rest;
        slot
      | [] when t.fresh < t.capacity ->
        t.fresh <- t.fresh + 1;
        t.fresh - 1
      | [] -> Rio_fs.Fs_types.err "registry full"
    in
    Hashtbl.replace t.index home_paddr slot;
    t.live <- t.live + 1;
    write_slot t slot entry

let unregister t ~home_paddr =
  match Hashtbl.find_opt t.index home_paddr with
  | None -> ()
  | Some slot ->
    Hashtbl.remove t.index home_paddr;
    t.released <- slot :: t.released;
    t.live <- t.live - 1;
    clear_slot t slot

let update_slot t ~home_paddr f =
  match Hashtbl.find_opt t.index home_paddr with
  | None -> ()
  | Some slot ->
    (match read_slot t slot with
    | Some e -> write_slot t slot (f e)
    | None -> ())

let set_changing t ~home_paddr changing =
  update_slot t ~home_paddr (fun e -> { e with changing })

let set_checksum t ~home_paddr checksum =
  update_slot t ~home_paddr (fun e -> { e with checksum })

(* The close-write pair (new checksum + changing:=false) as one slot
   rewrite; final slot bytes identical to the two separate updates. *)
let set_closed t ~home_paddr checksum =
  update_slot t ~home_paddr (fun e -> { e with checksum; changing = false })

let redirect t ~home_paddr ~paddr = update_slot t ~home_paddr (fun e -> { e with paddr })

let iter t f =
  (* Only slots the index owns: free slots may hold stale bytes. *)
  let slots = Hashtbl.fold (fun _ slot acc -> slot :: acc) t.index [] in
  List.iter
    (fun slot ->
      match read_slot t slot with
      | Some e -> f e
      | None -> ())
    (List.sort compare slots)

(* ---- world-template rewind ---- *)

type checkpoint = {
  ck_index : (int * int) list;
  ck_released : int list;
  ck_fresh : int;
  ck_live : int;
}

(* Slot bytes in simulated memory rewind with the memory snapshot; only the
   host-side index and free-slot state need capturing. *)
let checkpoint t =
  { ck_index = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.index [];
    ck_released = t.released;
    ck_fresh = t.fresh;
    ck_live = t.live }

let restore t ck =
  Hashtbl.reset t.index;
  List.iter (fun (k, v) -> Hashtbl.replace t.index k v) ck.ck_index;
  t.released <- ck.ck_released;
  t.fresh <- ck.ck_fresh;
  t.live <- ck.ck_live

type parse_result = {
  entries : entry list;
  corrupt_slots : int;
}

let plausible ~mem_bytes e =
  let page_ok p = p >= 0 && p + Phys_mem.page_size <= mem_bytes && p mod Phys_mem.page_size = 0 in
  page_ok e.home_paddr && page_ok e.paddr
  && e.size >= 0
  && e.size <= Phys_mem.page_size
  && e.dev >= 0 && e.dev <= 0xFFFF
  && e.ino >= 0 && e.ino < 1 lsl 24
  && e.offset >= 0
  && e.offset < 1 lsl 30
  && e.blkno >= 0
  && e.blkno < 1 lsl 28

let parse_base ~buf ~base ~region ~mem_bytes =
  let capacity = region.Layout.bytes / entry_bytes in
  let entries = ref [] in
  let corrupt = ref 0 in
  for slot = 0 to capacity - 1 do
    match read_slot_image buf base slot with
    | `Free -> ()
    | `Corrupt -> incr corrupt
    | `Entry e -> if plausible ~mem_bytes e then entries := e :: !entries else incr corrupt
  done;
  { entries = List.rev !entries; corrupt_slots = !corrupt }

let parse_image ~image ~region ~mem_bytes =
  parse_base ~buf:image ~base:region.Layout.base ~region ~mem_bytes

let parse_slice ~slice ~region ~mem_bytes = parse_base ~buf:slice ~base:0 ~region ~mem_bytes
