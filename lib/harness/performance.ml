module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Layout = Rio_mem.Layout
module Kernel = Rio_kernel.Kernel
module Fs = Rio_fs.Fs
module Rio_cache = Rio_core.Rio_cache
module Cp_rm = Rio_workload.Cp_rm
module Sdet = Rio_workload.Sdet
module Andrew = Rio_workload.Andrew
module Table = Rio_util.Table
module Units = Rio_util.Units
module Pool = Rio_parallel.Pool
module World = Rio_world.World

type configuration = {
  label : string;
  policy : Fs.policy;
  rio_protection : bool option;
}

let configurations =
  [
    { label = "memory-fs"; policy = Fs.Mfs; rio_protection = None };
    { label = "ufs-delayed"; policy = Fs.Ufs_delayed; rio_protection = None };
    { label = "advfs"; policy = Fs.Advfs; rio_protection = None };
    { label = "ufs"; policy = Fs.Ufs_default; rio_protection = None };
    { label = "wt-close"; policy = Fs.Wt_close; rio_protection = None };
    { label = "wt-write"; policy = Fs.Wt_write; rio_protection = None };
    { label = "rio-noprot"; policy = Fs.Rio_policy; rio_protection = Some false };
    { label = "rio-prot"; policy = Fs.Rio_policy; rio_protection = Some true };
  ]

type measurement = {
  config_label : string;
  cp_s : float;
  rm_s : float;
  sdet_s : float;
  andrew_s : float;
}

(* 128 MB of memory, and a disk big enough for the 40 MB tree twice plus
   swap covering memory. *)
let paper_machine ~seed =
  {
    Kernel.default_config with
    Kernel.layout_config = Layout.paper_config;
    disk_sectors = 640 * 1024 (* 320 MB *);
    seed;
  }

(* A fresh paper-scale machine, built through the same [World] path the
   campaign engines template; these cells measure *simulated* time over
   minutes-long workloads, so there is nothing to amortize — each one is
   a fresh build, recycled after the run. *)
let fresh_system ?(backend = Rio_disk.Backend.Scsi) config ~seed =
  World.create ~config:(paper_machine ~seed)
    ~rio:(config.rio_protection <> None)
    ~protection:(config.rio_protection = Some true)
    ~policy:config.policy ~backend ~seed ()

let seconds engine t0 = Units.sec_of_usec (Engine.now engine - t0)

let measure_workload ?backend config ~scale ~seed workload =
  let w = fresh_system ?backend config ~seed in
  let engine = World.engine w and fs = World.fs w in
  Fun.protect ~finally:(fun () -> World.dispose w) @@ fun () ->
  match workload with
  | `Cp_rm ->
    let w = Cp_rm.create ~total_bytes:(int_of_float (scale *. 40e6)) () in
    Cp_rm.setup w fs;
    Fs.sync fs;
    (* Disk-backed systems start the timed run cold (the paper's tree was
       not sitting in the file cache); memory-resident systems (MFS, Rio)
       by construction keep it in memory. *)
    if not (Fs.rules config.policy).Fs.trusts_memory then Fs.remount_cold fs;
    let t0 = Engine.now engine in
    Cp_rm.run_cp w fs;
    let t_cp = Engine.now engine in
    Cp_rm.run_rm w fs;
    let t_rm = Engine.now engine in
    (Units.sec_of_usec (t_cp - t0), Units.sec_of_usec (t_rm - t_cp))
  | `Sdet ->
    let w =
      Sdet.create ~scripts:5 ~ops_per_script:(max 20 (int_of_float (scale *. 1200.))) ()
    in
    let t0 = Engine.now engine in
    Sdet.run w fs;
    (seconds engine t0, 0.)
  | `Andrew ->
    let w = Andrew.create ~scale () in
    let t0 = Engine.now engine in
    Andrew.run w fs;
    (seconds engine t0, 0.)

let run ?only (cfg : Run.config) =
  let scale = cfg.Run.scale in
  let seed = cfg.Run.seed in
  let selected =
    match only with
    | None -> configurations
    | Some labels -> List.filter (fun c -> List.mem c.label labels) configurations
  in
  let report = Run.reporter cfg ~total:(List.length selected) in
  (* Each (configuration, workload) cell boots a fresh machine from [seed]
     alone, so a configuration's three measurements form one independent
     task; results come back in Table 2 row order either way. *)
  Pool.map_list ~domains:cfg.Run.domains
    (fun config ->
      let backend = cfg.Run.backend in
      let cp_s, rm_s = measure_workload ~backend config ~scale ~seed `Cp_rm in
      let sdet_s, _ = measure_workload ~backend config ~scale ~seed `Sdet in
      let andrew_s, _ = measure_workload ~backend config ~scale ~seed `Andrew in
      report ~label:config.label
        ~detail:
          (Printf.sprintf "cp+rm %.0fs (%.0f+%.0f)  sdet %.0fs  andrew %.0fs" (cp_s +. rm_s)
             cp_s rm_s sdet_s andrew_s);
      { config_label = config.label; cp_s; rm_s; sdet_s; andrew_s })
    selected

let to_table measurements =
  let table =
    Table.create
      ~columns:
        [
          ("System", Table.Left);
          ("cp+rm (s)", Table.Right);
          ("Sdet (s)", Table.Right);
          ("Andrew (s)", Table.Right);
        ]
  in
  List.iter
    (fun m ->
      Table.add_row table
        [
          m.config_label;
          Printf.sprintf "%.0f (%.0f+%.0f)" (m.cp_s +. m.rm_s) m.cp_s m.rm_s;
          Printf.sprintf "%.0f" m.sdet_s;
          Printf.sprintf "%.0f" m.andrew_s;
        ])
    measurements;
  table

let find measurements label =
  List.find_opt (fun m -> m.config_label = label) measurements

let speedup measurements ~num ~den =
  match (find measurements num, find measurements den) with
  | Some a, Some b ->
    [
      (a.cp_s +. a.rm_s) /. (b.cp_s +. b.rm_s);
      a.sdet_s /. b.sdet_s;
      a.andrew_s /. b.andrew_s;
    ]
  | _ -> []

let comparison_table measurements =
  let table =
    Table.create
      ~columns:
        [
          ("System", Table.Left);
          ("paper cp+rm", Table.Right);
          ("ours cp+rm", Table.Right);
          ("paper Sdet", Table.Right);
          ("ours Sdet", Table.Right);
          ("paper Andrew", Table.Right);
          ("ours Andrew", Table.Right);
        ]
  in
  List.iter
    (fun m ->
      match Paper_data.table2_row m.config_label with
      | None -> ()
      | Some p ->
        Table.add_row table
          [
            m.config_label;
            Printf.sprintf "%.0f" p.Paper_data.cp_rm;
            Printf.sprintf "%.0f" (m.cp_s +. m.rm_s);
            Printf.sprintf "%.0f" p.Paper_data.sdet;
            Printf.sprintf "%.0f" m.sdet_s;
            Printf.sprintf "%.0f" p.Paper_data.andrew;
            Printf.sprintf "%.0f" m.andrew_s;
          ])
    measurements;
  let ratio_row label num den paper_lo paper_hi =
    match speedup measurements ~num ~den with
    | [] -> ()
    | ratios ->
      let lo, hi = Rio_util.Stats.min_max (Array.of_list ratios) in
      Table.add_row table
        [
          label;
          Printf.sprintf "%.0f-%.0fx" paper_lo paper_hi;
          Printf.sprintf "%.1f-%.1fx" lo hi;
          ""; ""; ""; "";
        ]
  in
  Table.add_separator table;
  ratio_row "rio vs write-through" "wt-write" "rio-prot" 4. 22.;
  ratio_row "rio vs ufs" "ufs" "rio-prot" 2. 14.;
  ratio_row "rio vs ufs-delayed" "ufs-delayed" "rio-prot" 1. 3.;
  table
