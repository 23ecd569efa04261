(* The table2 workload: Table 2 at the paper's scale on SCSI, one
   [Performance.measure_workload] cell per op, in Table 2 order, whole
   passes only. No crashes and no interpreter: file-system policies, the
   block caches, write-behind, SCSI timing and Rio's protection toggles do
   the work. Write/delete-heavy cp+rm over a 40 MB tree runs beside the
   mixed Sdet and the small Andrew. The only workload with simulated-time
   results. *)

module Performance = Rio_harness.Performance
module Kernel = Rio_kernel.Kernel
module Layout = Rio_mem.Layout
module Fs = Rio_fs.Fs
module Block_cache = Rio_fs.Block_cache
module Disk = Rio_disk.Disk
module Rio_cache = Rio_core.Rio_cache
module Engine = Rio_sim.Engine
module Units = Rio_util.Units
module Cp_rm = Rio_workload.Cp_rm
module Sdet = Rio_workload.Sdet
module Andrew = Rio_workload.Andrew
module World = Rio_world.World

type load = [ `Cp_rm | `Sdet | `Andrew ]

let load_name : load -> string = function
  | `Cp_rm -> "cp+rm"
  | `Sdet -> "sdet"
  | `Andrew -> "andrew"

let config label = List.find (fun c -> c.Performance.label = label) Performance.configurations
let keyed ((c : Performance.configuration), l) = (c.Performance.label, l)

(* wt-close x Sdet aborts at every scale from 0.5 up: the retire-count
   assertion in [Block_cache.flush_dirty] fails (seeds 1 to 3), where
   table2_full.txt records 306 s for the cell. The timed ops must all be
   able to succeed, so this cell is not one of them; instead every run
   measures it once after the timed passes, at the same scale, and
   reports the abort as [table2.aborted_cells]. Any other cell that raises
   is a failed op. *)
let aborting_cell = (config "wt-close", `Sdet)

let cells =
  List.filter
    (fun cell -> keyed cell <> keyed aborting_cell)
    (List.concat_map
       (fun c -> List.map (fun l -> (c, l)) [ `Cp_rm; `Sdet; `Andrew ])
       Performance.configurations)

let scale ~smoke = if smoke then 0.01 else 1.0

let measure (c, l) ~scale ~seed =
  match Performance.measure_workload c ~scale ~seed l with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let cell_name ((c : Performance.configuration), l) =
  Printf.sprintf "%s x %s" c.Performance.label (load_name l)

(* The untimed warm-up op: one small rio-prot cell. *)
let warmup ~seed ~smoke = ignore (measure (config "rio-prot", `Andrew) ~scale:(scale ~smoke) ~seed)

(* [aborting_cell], once: 1 if it raised, else 0. *)
let aborted_cells ~scale ~seed =
  match measure aborting_cell ~scale ~seed with
  | Ok _ -> 0
  | Error msg ->
    Printf.eprintf "table2: %s raised %s\n%!" (cell_name aborting_cell) msg;
    1

let aborted_metric n = Meter.metric "table2.aborted_cells" "count" (float_of_int n)

(* The simulated-time results: per configuration, cp+rm + Sdet + Andrew
   over one pass, and Rio's protection cost on cp+rm. A result that needs
   a cell which raised is left out. *)
let sim_metrics results =
  let ( let* ) = Option.bind in
  let secs label l =
    match List.assoc_opt (label, l) results with Some (Ok (a, b)) -> Some (a +. b) | _ -> None
  in
  let total label =
    let* c = secs label `Cp_rm in
    let* s = secs label `Sdet in
    let* a = secs label `Andrew in
    Some (c +. s +. a)
  in
  let prot_cost =
    let* p = secs "rio-prot" `Cp_rm in
    let* n = secs "rio-noprot" `Cp_rm in
    if n > 0. then Some (100. *. (p -. n) /. n) else None
  in
  List.filter_map
    (fun (name, unit, v) -> Option.map (Meter.metric name unit) v)
    (List.map
       (fun label -> ("sim_s." ^ label, "sim_s", total label))
       [ "rio-prot"; "ufs"; "ufs-delayed"; "wt-write" ]
    @ [ ("prot_cost_pct", "%", prot_cost) ])

let run ~setup ~seed ~seconds ~smoke =
  let scale = scale ~smoke in
  let first = ref [] and attempted = ref 0 and failed = ref 0 in
  let rounds =
    Meter.closed_loop ~seconds (fun () ->
        let times = Meter.recorder () in
        let pass =
          List.map
            (fun cell ->
              let r = Meter.timed_op times (fun () -> measure cell ~scale ~seed) in
              incr attempted;
              let bad =
                match (r, List.assoc_opt (keyed cell) !first) with
                | Error msg, _ -> Some ("raised " ^ msg)
                | Ok v, Some (Ok v1) when v <> v1 -> Some "simulated seconds differ from pass 1"
                | Ok _, _ -> None
              in
              Option.iter
                (fun why ->
                  incr failed;
                  Printf.eprintf "table2: %s %s\n%!" (cell_name cell) why)
                bad;
              (keyed cell, r))
            cells
        in
        if !first = [] then first := pass;
        Meter.finish times)
  in
  let aborted = aborted_cells ~scale ~seed in
  Meter.timed ~setup ~rounds ~attempted:!attempted ~failed:!failed
    (sim_metrics !first @ [ aborted_metric aborted ])

(* ---------------- the traced composition ---------------- *)

(* [Performance.measure_workload], call for call, with spans around the
   workload phases and the layer counters read around the timed part.
   It must reproduce every cell's simulated seconds exactly. *)

let paper_machine ~seed =
  {
    Kernel.default_config with
    Kernel.layout_config = Layout.paper_config;
    disk_sectors = 640 * 1024;
    seed;
  }

type counts = {
  disk : Disk.stats;
  meta : Block_cache.stats;
  data : Block_cache.stats;
  rio : Rio_cache.stats option;
}

let counts w =
  let fs = World.fs w in
  {
    disk = Disk.stats (World.disk w);
    meta = Block_cache.stats (Fs.meta_cache fs);
    data = Block_cache.stats (Fs.data_cache fs);
    rio = (match World.rio w with r -> Some (Rio_cache.stats r) | exception Invalid_argument _ -> None);
  }

(* Counter deltas over the timed part of one cell. *)
let note sp before after ~copied =
  let add name d = Spans.count sp name (float_of_int d) in
  add "disk.writes" (after.disk.Disk.writes - before.disk.Disk.writes);
  add "disk.sectors_written" (after.disk.Disk.sectors_written - before.disk.Disk.sectors_written);
  add "disk.seeks" (after.disk.Disk.seeks - before.disk.Disk.seeks);
  add "disk.busy_us" (after.disk.Disk.busy_us - before.disk.Disk.busy_us);
  let cache prefix (b : Block_cache.stats) (a : Block_cache.stats) =
    add (prefix ^ ".hits") (a.Block_cache.hits - b.Block_cache.hits);
    add (prefix ^ ".accesses")
      (a.Block_cache.hits + a.Block_cache.misses - b.Block_cache.hits - b.Block_cache.misses);
    add "fs.writebacks" (a.Block_cache.writebacks - b.Block_cache.writebacks)
  in
  cache "fs.meta_cache" before.meta after.meta;
  cache "fs.data_cache" before.data after.data;
  (match (before.rio, after.rio) with
  | Some b, Some a ->
    add "rio.cells" 1;
    add "rio.protection_toggles" (a.Rio_cache.protection_toggles - b.Rio_cache.protection_toggles);
    add "rio.registry_updates" (a.Rio_cache.registry_updates - b.Rio_cache.registry_updates);
    add "rio.checksum_updates" (a.Rio_cache.checksum_updates - b.Rio_cache.checksum_updates)
  | _ -> ());
  if copied > 0 then begin
    add "cp.bytes" copied;
    add "cp.sectors_written" (after.disk.Disk.sectors_written - before.disk.Disk.sectors_written)
  end

let compose sp ((c : Performance.configuration), (l : load)) ~scale ~seed =
  let span name fn = Spans.span sp name fn in
  let w =
    span "world.create" (fun () ->
        World.create ~config:(paper_machine ~seed)
          ~rio:(c.Performance.rio_protection <> None)
          ~protection:(c.Performance.rio_protection = Some true)
          ~policy:c.Performance.policy ~backend:Rio_disk.Backend.Scsi ~seed ())
  in
  let engine = World.engine w and fs = World.fs w in
  Fun.protect ~finally:(fun () -> span "world.dispose" (fun () -> World.dispose w)) @@ fun () ->
  let secs t0 t1 = Units.sec_of_usec (t1 - t0) in
  match l with
  | `Cp_rm ->
    let cw =
      span "workload.generate" (fun () ->
          Cp_rm.create ~total_bytes:(int_of_float (scale *. 40e6)) ())
    in
    span "workload.cp_setup" (fun () -> Cp_rm.setup cw fs);
    span "fs.sync" (fun () -> Fs.sync fs);
    (match c.Performance.policy with
    | Fs.Mfs | Fs.Rio_policy | Fs.Rio_idle -> ()
    | Fs.Ufs_default | Fs.Ufs_delayed | Fs.Wt_close | Fs.Wt_write | Fs.Advfs ->
      span "fs.remount_cold" (fun () -> Fs.remount_cold fs));
    let before = counts w in
    let t0 = Engine.now engine in
    span "workload.cp" (fun () -> Cp_rm.run_cp cw fs);
    let t_cp = Engine.now engine in
    span "workload.rm" (fun () -> Cp_rm.run_rm cw fs);
    let t_rm = Engine.now engine in
    note sp before (counts w) ~copied:(Cp_rm.bytes cw);
    (secs t0 t_cp, secs t_cp t_rm)
  | `Sdet ->
    let sw =
      span "workload.generate" (fun () ->
          Sdet.create ~scripts:5 ~ops_per_script:(max 20 (int_of_float (scale *. 1200.))) ())
    in
    let before = counts w in
    let t0 = Engine.now engine in
    span "workload.sdet" (fun () -> Sdet.run sw fs);
    note sp before (counts w) ~copied:0;
    (secs t0 (Engine.now engine), 0.)
  | `Andrew ->
    let aw = span "workload.generate" (fun () -> Andrew.create ~scale ()) in
    let before = counts w in
    let t0 = Engine.now engine in
    span "workload.andrew_cell" (fun () -> Andrew.run aw fs);
    note sp before (counts w) ~copied:0;
    (secs t0 (Engine.now engine), 0.)

let traced_measure sp cell ~scale ~seed =
  match Spans.trial sp "table2.cell" (fun () -> compose sp cell ~scale ~seed) with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let trace ~seed ~seconds ~smoke sp =
  let scale = scale ~smoke in
  let pairing = Meter.pairing () in
  let first = ref [] and attempted = ref 0 and failed = ref 0 in
  ignore
    (Meter.closed_loop ~seconds (fun () ->
         let pass = ref [] in
         List.iter
           (fun cell ->
             let r, c =
               Meter.pair pairing
                 ~untraced:(fun () -> measure cell ~scale ~seed)
                 ~traced:(fun () -> traced_measure sp cell ~scale ~seed)
             in
             incr attempted;
             if Result.is_error r then incr failed;
             pass := (keyed cell, c) :: !pass;
             if r <> c then begin
               pairing.Meter.mismatches <- pairing.Meter.mismatches + 1;
               Printf.eprintf "table2: composed %s does not reproduce measure_workload\n%!"
                 (cell_name cell)
             end)
           cells;
         if !first = [] then first := !pass;
         [||])
      : float array list);
  let aborted = aborted_cells ~scale ~seed in
  let n = float_of_int !attempted in
  let per_op name = 1e3 *. Spans.total sp name /. n in
  let per_cell name = Spans.counter sp name /. n in
  let rio_cells = Spans.counter sp "rio.cells" in
  let per_rio name = Meter.per (Spans.counter sp name) rio_cells in
  let ratio a b = Meter.per (Spans.counter sp a) (Spans.counter sp b) in
  ( {
      Meter.attempted = !attempted;
      failed = !failed;
      correct = !failed = 0;
      metrics =
        [
          Meter.metric "op_ms.p50" "ms" (1e3 *. Spans.p50 sp "table2.cell");
          Meter.metric "world.create_ms.p50" "ms" (1e3 *. Spans.p50 sp "world.create");
          Meter.metric "workload.generate_ms" "ms" (per_op "workload.generate");
          Meter.metric "workload.cp_setup_ms" "ms" (per_op "workload.cp_setup");
          Meter.metric "workload.cp_ms" "ms" (per_op "workload.cp");
          Meter.metric "workload.rm_ms" "ms" (per_op "workload.rm");
          Meter.metric "workload.sdet_ms" "ms" (per_op "workload.sdet");
          Meter.metric "workload.andrew_cell_ms" "ms" (per_op "workload.andrew_cell");
          Meter.metric "rio.protection_toggles" "count" (per_rio "rio.protection_toggles");
          Meter.metric "rio.registry_updates" "count" (per_rio "rio.registry_updates");
          Meter.metric "rio.checksum_updates" "count" (per_rio "rio.checksum_updates");
          Meter.metric "fs.meta_cache.hit_ratio" "ratio"
            (ratio "fs.meta_cache.hits" "fs.meta_cache.accesses");
          Meter.metric "fs.data_cache.hit_ratio" "ratio"
            (ratio "fs.data_cache.hits" "fs.data_cache.accesses");
          Meter.metric "fs.writebacks" "count" (per_cell "fs.writebacks");
          Meter.metric "disk.writes" "count" (per_cell "disk.writes");
          Meter.metric "disk.sectors_written" "count" (per_cell "disk.sectors_written");
          Meter.metric "disk.seeks" "count" (per_cell "disk.seeks");
          Meter.metric "disk.busy_s" "sim_s" (per_cell "disk.busy_us" /. 1e6);
          Meter.metric "disk.write_amp" "ratio"
            (Meter.per
               (float_of_int Disk.sector_bytes *. Spans.counter sp "cp.sectors_written")
               (Spans.counter sp "cp.bytes"));
        ]
        @ sim_metrics !first
        @ [ aborted_metric aborted ]
        @ Meter.gc_metrics pairing ~ops:n;
      report = [];
    },
    pairing )
