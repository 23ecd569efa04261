(* The asynchronous write-behind pipeline between the caches and the
   backend (NVCache-style): dirty blocks are STAGED into a FIFO queue,
   adjacent-sector runs are COALESCED into single segments, and a FLUSH
   issues the batch to the backend as asynchronous writes, closed by a
   group-commit hand-off. Each ordering point is announced through
   {!Hooks.t.wb_event} ("wb-queue" / "wb-flush" / "wb-commit" labels) so
   the crash-schedule explorer and fuzzer can crash inside the windows —
   the crash-vulnerable orderings live exactly between these events.

   [unordered] is a PLANTED ablation: a flush with two or more coalesced
   segments holds the first one back for the next batch (issuing the rest
   "out of order"), modelling a pipeline that reorders around its oldest
   staged segment. A sync that returns after such a flush has NOT made
   the held segment durable — the cold-recovery fuzz contract catches
   this as lost synced data. *)

module Disk = Rio_disk.Disk

type seg = {
  ws_sector : int;
  ws_data : bytes; (* whole sectors *)
}

type t = {
  disk : Disk.t;
  hooks : Hooks.t;
  unordered : bool;
  mutable queue : seg list; (* newest first; staging order = reversed *)
  mutable held : seg list; (* ablation only: carried over to the next flush *)
}

let create ~disk ~hooks ~unordered =
  { disk; hooks; unordered; queue = []; held = [] }

let stage t ~sector data =
  let count = (Bytes.length data + Disk.sector_bytes - 1) / Disk.sector_bytes in
  t.hooks.Hooks.wb_event ~label:(Printf.sprintf "wb-queue s%d x%d" sector count);
  t.queue <- { ws_sector = sector; ws_data = data } :: t.queue

(* Merge adjacent-sector runs, preserving staging order. The caches flush
   in block order, so sequential file data arrives as mergeable runs. *)
let coalesce segs =
  let flush_run acc = function
    | [] -> acc
    | [ s ] -> s :: acc
    | run ->
      let run = List.rev run in
      let total = List.fold_left (fun n s -> n + Bytes.length s.ws_data) 0 run in
      let data = Bytes.create total in
      let pos = ref 0 in
      List.iter
        (fun s ->
          Bytes.blit s.ws_data 0 data !pos (Bytes.length s.ws_data);
          pos := !pos + Bytes.length s.ws_data)
        run;
      { ws_sector = (List.hd run).ws_sector; ws_data = data } :: acc
  in
  let acc, run =
    List.fold_left
      (fun (acc, run) s ->
        match run with
        | prev :: _
          when prev.ws_sector + (Bytes.length prev.ws_data / Disk.sector_bytes) = s.ws_sector
          -> (acc, s :: run)
        | _ -> (flush_run acc run, [ s ]))
      ([], []) segs
  in
  List.rev (flush_run acc run)

let flush t =
  let staged = List.rev t.queue in
  t.queue <- [];
  let segs = t.held @ coalesce staged in
  t.held <- [];
  match segs with
  | [] -> 0
  | segs ->
    let to_write =
      if t.unordered && List.length segs >= 2 then begin
        (* PLANTED BUG (ablation): reorder around the oldest segment by
           holding it for the next batch. Nothing re-issues it if the
           system crashes first — or if the next flush holds it again. *)
        t.held <- [ List.hd segs ];
        List.tl segs
      end
      else segs
    in
    List.iter
      (fun s ->
        let count = Bytes.length s.ws_data / Disk.sector_bytes in
        t.hooks.Hooks.wb_event ~label:(Printf.sprintf "wb-flush s%d x%d" s.ws_sector count);
        Disk.write_async t.disk ~sector:s.ws_sector s.ws_data)
      to_write;
    let n = List.length to_write in
    t.hooks.Hooks.wb_event ~label:(Printf.sprintf "wb-commit batch n%d" n);
    n

(* ---- world-template rewind ---- *)

type state = { st_queue : seg list; st_held : seg list }

let copy_seg s = { s with ws_data = Bytes.copy s.ws_data }

let save t =
  { st_queue = List.map copy_seg t.queue; st_held = List.map copy_seg t.held }

let restore t st =
  t.queue <- List.map copy_seg st.st_queue;
  t.held <- List.map copy_seg st.st_held
