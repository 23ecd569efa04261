module Phys_mem = Rio_mem.Phys_mem
module Hooks = Rio_fs.Hooks
module Trace = Rio_obs.Trace
module Vista = Rio_txn.Vista

exception Crash_here

(* What the probe froze at the tripped boundary. The reference path keeps
   the full 16 MB image; the fast path keeps a copy-on-write snapshot
   (O(1) to take, O(pages dirtied afterwards) to restore) plus the
   composed torn page, if the boundary was a torn variant. *)
type capture =
  | Image of bytes
  | Snap of { snap : Phys_mem.snapshot; torn : (int * bytes) option }

(* A torn boundary half-applies one page's pending stores; [None] is an
   intact crash. *)
type torn_spec = { ts_page : int; ts_pre : bytes; ts_keep_first : bool }

type t = {
  mem : Phys_mem.t;
  obs : Trace.t;
  fast : bool;
  mutable armed : bool;
  mutable next : int;
  mutable trip_at : int;
  mutable labels_rev : string list;
  mutable capture : capture option;
  mutable tripped : string option;
  (* Fired after every counted, non-tripping boundary: the task
     scheduler's preemption hook (boundaries are the preemption points). *)
  mutable on_emit : string -> unit;
  (* Page pre-images captured at open_write, for torn-store composition. *)
  pre_images : (int, bytes) Hashtbl.t;
  (* Pages written through copy_in since their open_write (data pages;
     metadata mutates via blit_in and gets its torn variants from the
     shadow window instead). *)
  copied : (int, unit) Hashtbl.t;
}

let create ?(fast = Rio_util.Fastpath.on ()) ~mem ~obs () =
  {
    mem;
    obs;
    fast;
    armed = false;
    next = 0;
    trip_at = -1;
    labels_rev = [];
    capture = None;
    tripped = None;
    on_emit = ignore;
    pre_images = Hashtbl.create 16;
    copied = Hashtbl.create 16;
  }

let drop_capture t =
  (match t.capture with
  | Some (Snap { snap; _ }) -> Phys_mem.release t.mem snap
  | Some (Image _) | None -> ());
  t.capture <- None

let arm t ~trip_at =
  t.armed <- true;
  t.next <- 0;
  t.trip_at <- trip_at;
  t.labels_rev <- [];
  drop_capture t;
  t.tripped <- None;
  Hashtbl.reset t.pre_images;
  Hashtbl.reset t.copied

let disarm t = t.armed <- false
let set_on_emit t f = t.on_emit <- f
let emitted t = t.next
let labels t = List.rev t.labels_rev
let has_crash_image t = t.capture <> None
let tripped_label t = t.tripped

(* Half-apply the page's pending stores: of the bytes that differ between
   the pre-image and the current content [cur], [/lo] keeps the first half
   new (reverting the rest), [/hi] keeps the second half. Mutates [cur]
   into the composed page. *)
let compose_torn_page ~pre ~keep_first cur =
  let changed = ref [] in
  for i = Phys_mem.page_size - 1 downto 0 do
    if Bytes.get pre i <> Bytes.get cur i then changed := i :: !changed
  done;
  let changed = Array.of_list !changed in
  let half = (Array.length changed + 1) / 2 in
  Array.iteri
    (fun k idx ->
      let revert = if keep_first then k >= half else k < half in
      if revert then Bytes.set cur idx (Bytes.get pre idx))
    changed

(* One boundary. The capture happens before the raise so unwind-path
   cleanup (Rio's shadow disengage) cannot launder the crash state. *)
let emit t label torn =
  if t.armed then begin
    let i = t.next in
    t.next <- i + 1;
    t.labels_rev <- label :: t.labels_rev;
    if Trace.enabled t.obs then
      Trace.emit t.obs Trace.Harness (Trace.Mark (Printf.sprintf "crashpoint %d %s" i label));
    if i = t.trip_at then begin
      (if t.fast then begin
         (* Compose the torn page against live memory (the snapshot has
            no writes yet, so live memory is the snapshot content). *)
         let torn =
           match torn with
           | None -> None
           | Some { ts_page; ts_pre; ts_keep_first } ->
             let cur = Phys_mem.blit_out t.mem ts_page ~len:Phys_mem.page_size in
             compose_torn_page ~pre:ts_pre ~keep_first:ts_keep_first cur;
             Some (ts_page, cur)
         in
         t.capture <- Some (Snap { snap = Phys_mem.snapshot t.mem; torn })
       end
       else begin
         let image = Phys_mem.dump t.mem in
         (match torn with
         | None -> ()
         | Some { ts_page; ts_pre; ts_keep_first } ->
           let cur = Bytes.sub image ts_page Phys_mem.page_size in
           compose_torn_page ~pre:ts_pre ~keep_first:ts_keep_first cur;
           Bytes.blit cur 0 image ts_page Phys_mem.page_size);
         t.capture <- Some (Image image)
       end);
      t.tripped <- Some label;
      raise Crash_here
    end
    else t.on_emit label
  end

let hit t label = emit t label None
let point t label = hit t label

let hit_torn t label ~page ~pre =
  emit t (label ^ "/lo") (Some { ts_page = page; ts_pre = pre; ts_keep_first = true });
  emit t (label ^ "/hi") (Some { ts_page = page; ts_pre = pre; ts_keep_first = false })

(* Put memory into the captured crash state (what the old full-image
   restore_dump did, in O(pages dirtied since the trip) on the fast
   path). Single-shot: the fast capture is consumed by restoring it. *)
let restore_crash_image t =
  match t.capture with
  | None -> invalid_arg "Boundary.restore_crash_image: no boundary tripped"
  | Some (Image image) -> Phys_mem.restore_dump t.mem image
  | Some (Snap { snap; torn }) ->
    Phys_mem.restore t.mem snap;
    (match torn with
    | Some (page, composed) -> Phys_mem.blit_in t.mem page composed
    | None -> ());
    t.capture <- None

let page_of paddr = paddr - (paddr mod Phys_mem.page_size)

(* Every hook below builds its label only while the probe is armed: a
   disarmed probe ignores the label, and most hook traffic (world builds,
   warm reboots, counting passes past the trip) runs disarmed. *)
let instrument_hooks t (hooks : Hooks.t) =
  let rio_note_map = hooks.Hooks.note_map in
  let rio_open = hooks.Hooks.open_write in
  let rio_close = hooks.Hooks.close_write in
  let rio_meta = hooks.Hooks.metadata_update in
  let kernel_copy_in = hooks.Hooks.copy_in in
  let fs_wb_event = hooks.Hooks.wb_event in
  (* Write-behind pipeline orderings (wb-queue / wb-flush / wb-commit
     labels) become crash points: the explorer and fuzzer crash between
     staging, issue, and commit of the asynchronous write-back batches. *)
  hooks.Hooks.wb_event <-
    (fun ~label ->
      fs_wb_event ~label;
      hit t label);
  hooks.Hooks.note_map <-
    (fun ~paddr ~blkno ~owner ~valid ->
      rio_note_map ~paddr ~blkno ~owner ~valid;
      if t.armed then hit t (Printf.sprintf "registry-update p0x%x" (page_of paddr)));
  hooks.Hooks.open_write <-
    (fun ~paddr ->
      rio_open ~paddr;
      let page = page_of paddr in
      if t.armed then begin
        if not (Hashtbl.mem t.pre_images page) then
          Hashtbl.replace t.pre_images page (Phys_mem.blit_out t.mem page ~len:Phys_mem.page_size);
        hit t (Printf.sprintf "store-open p0x%x" page)
      end);
  hooks.Hooks.copy_in <-
    (fun src pos ~paddr ~len ->
      kernel_copy_in src pos ~paddr ~len;
      if t.armed then begin
        let page = page_of paddr in
        Hashtbl.replace t.copied page ();
        hit t (Printf.sprintf "store-copy p0x%x+%d" page len)
      end);
  hooks.Hooks.close_write <-
    (fun ~paddr ->
      let page = page_of paddr in
      (* Torn variants first: the stores are still "in flight" until the
         close refreshes the checksum. Only for pages the data path wrote
         via copy_in — metadata stores physically happen inside the shadow
         window and get their torn variants there. *)
      (if t.armed && Hashtbl.mem t.copied page then
         match Hashtbl.find_opt t.pre_images page with
         | Some pre -> hit_torn t (Printf.sprintf "store-torn p0x%x" page) ~page ~pre
         | None -> ());
      rio_close ~paddr;
      Hashtbl.remove t.pre_images page;
      Hashtbl.remove t.copied page;
      if t.armed then hit t (Printf.sprintf "store-close p0x%x" page));
  hooks.Hooks.metadata_update <-
    (fun ~paddr f ->
      let page = page_of paddr in
      if t.armed then hit t (Printf.sprintf "meta-begin p0x%x" page);
      let pre =
        if t.armed then Some (Phys_mem.blit_out t.mem page ~len:Phys_mem.page_size) else None
      in
      rio_meta ~paddr (fun () ->
          f ();
          (* Inside the (possible) shadow window: the home page has been
             mutated, the registry may still point at the shadow. *)
          (match pre with
          | Some pre -> hit_torn t (Printf.sprintf "meta-torn p0x%x" page) ~page ~pre
          | None -> ());
          if t.armed then hit t (Printf.sprintf "meta-mutated p0x%x" page));
      if t.armed then hit t (Printf.sprintf "meta-done p0x%x" page))

let instrument_disk t disk =
  Rio_disk.Disk.set_on_complete disk (fun ~sector ~count ~write ->
      if t.armed then
        hit t (Printf.sprintf "disk-complete %s s%d x%d" (if write then "w" else "r") sector count))

let vista_event t = function
  | Vista.Undo_append { offset; len } ->
    if t.armed then hit t (Printf.sprintf "vista-undo-append @%d+%d" offset len)
  | Vista.Data_write { offset; len } ->
    if t.armed then hit t (Printf.sprintf "vista-data-write @%d+%d" offset len)
  | Vista.Commit_start -> hit t "vista-commit-start"
  | Vista.Committed -> hit t "vista-committed"
