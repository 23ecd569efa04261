(* riobench — regenerate the Rio paper's experiments.

   Subcommands: table1 (reliability and the MTTF projection), table2
   (performance), ablation (protection / code-patching / registry / delay
   sweep), messages, trace (flight-recorder forensics of one crash
   trial), vista, workloads, check, fuzz, cov, microbench, all. *)

module Reliability = Rio_harness.Reliability
module Run = Rio_harness.Run
module Explorer = Rio_check.Explorer
module Fuzzer = Rio_fuzz.Fuzzer
module Performance = Rio_harness.Performance
module Ablation = Rio_harness.Ablation
module Progress = Rio_harness.Progress
module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type
module Table = Rio_util.Table
module Json = Rio_util.Json
module Pool = Rio_parallel.Pool
module Trace = Rio_obs.Trace
module Export = Rio_obs.Export
module Forensics = Rio_obs.Forensics
module Cov = Rio_cov.Cov
module Heatmap = Rio_cov.Heatmap
open Cmdliner

(* Per-cell progress with an ETA extrapolated from completed cells. *)
let progress verbose =
  if not verbose then fun (_ : Progress.t) -> ()
  else begin
    let t0 = Unix.gettimeofday () in
    fun (p : Progress.t) ->
      let elapsed = Unix.gettimeofday () -. t0 in
      let line =
        if p.Progress.completed > 0 && p.Progress.completed < p.Progress.total then
          Progress.render
            ~eta_s:
              (elapsed /. float_of_int p.Progress.completed
              *. float_of_int (p.Progress.total - p.Progress.completed))
            p
        else Progress.render p
      in
      Printf.eprintf "  %s\n%!" line
  end

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-cell progress on stderr.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed (runs are deterministic).")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign executor (default: the number of \
           cores). Results are merged in seed order, so any N produces \
           byte-identical tables; -j 1 runs today's serial path.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write machine-readable timings and results to $(docv).")

let backend_arg =
  Arg.(
    value
    & opt
        (enum (List.map (fun b -> (Rio_disk.Backend.to_string b, b)) Rio_disk.Backend.all))
        Rio_disk.Backend.Scsi
    & info [ "backend" ] ~docv:"TIER"
        ~doc:
          "Persistence backend the worlds are built on: $(b,scsi) (the \
           paper's seek+rotation disk, garbage tears) or $(b,nvmm) (a \
           battery-backed append-log tier: near-zero latency, cache-line \
           tears). The check/fuzz configuration matrices fix their own \
           backends per spec and ignore this flag.")

let reference_arg =
  Arg.(
    value & flag
    & info [ "reference" ]
        ~doc:
          "Run the reference (slow) data path instead of the fast one: \
           per-step instruction decode, full-image crash captures, and \
           full-copy swap dumps. Results are byte-identical to the fast \
           path; only wall-clock time differs. For cross-validation.")

(* The knob is global and must be set before any worker domains spawn —
   every run_* entry point calls this first. Reference mode also makes the
   trial engine build every trial world from scratch instead of restoring
   a frozen template, so it cross-validates the snapshot/restore path end
   to end. *)
let set_fastpath ~reference = Rio_util.Fastpath.set (not reference)

let ring_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ring-capacity" ] ~docv:"N"
        ~doc:
          "Trace-ring capacity for the recorders the campaign creates \
           (default 65536; 0 = metrics only). Out-of-range values are \
           clamped and the clamp reported on stderr.")

(* Fold the CLI ring-capacity knob into the config and surface any clamp
   the sanitizer applied. *)
let with_obs cfg ~ring =
  let cfg = { cfg with Run.obs_capacity = ring } in
  List.iter (fun w -> Printf.eprintf "riobench: %s\n%!" w) (Run.obs_warnings cfg);
  cfg

(* The one --json sink: open early (fail fast on a bad path, not after a
   30-minute run), wrap the library document with the invocation header,
   write on completion. Wall-clock and job counts stay OUT of the
   documents CI compares across -j (fuzz --tasks, cov) — they are
   telemetry, not results — so those callers pass [header] without them. *)
let open_json_sink json =
  Option.map
    (fun file ->
      try (file, open_out file)
      with Sys_error msg ->
        Printf.eprintf "riobench: cannot open --json output: %s\n%!" msg;
        exit 1)
    json

let write_json_doc (file, oc) ~header body =
  let doc = Json.Obj (header @ body) in
  output_string oc (Json.pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n%!" file

let write_table1_json out ~crashes ~seed ~jobs ~wall_s results =
  let cell_json (system, fault, c) =
    Json.Obj
      [
        ("system", Json.Str (Campaign.system_name system));
        ("fault", Json.Str (Fault_type.name fault));
        ("crashes", Json.Int c.Reliability.crashes);
        ("attempts", Json.Int c.Reliability.attempts);
        ("corruptions", Json.Int c.Reliability.corruptions);
        ("corrupt_paths", Json.Int c.Reliability.corrupt_paths);
        ("protection_traps", Json.Int c.Reliability.protection_traps);
        ("checksum_detections", Json.Int c.Reliability.checksum_detections);
      ]
  in
  write_json_doc out
    ~header:
      [
        ("benchmark", Json.Str "table1");
        ("crashes_per_cell", Json.Int crashes);
        ("seed", Json.Int seed);
        ("jobs", Json.Int jobs);
        ("wall_s", Json.Float wall_s);
      ]
    ([
       ("unique_messages", Json.Int results.Reliability.unique_messages);
       ( "unique_consistency_messages",
         Json.Int results.Reliability.unique_consistency_messages );
       ("cells", Json.Arr (List.map cell_json results.Reliability.cells));
     ]
    @
    match results.Reliability.metrics with
    | Some snap -> [ ("metrics", Trace.snapshot_json snap) ]
    | None -> [])

(* ---------------- table1 ---------------- *)

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Turn the flight recorder on: write one JSONL trace per crashed \
           trial into $(docv) (created if missing) and aggregate per-trial \
           metrics into --json output. Off by default (zero overhead).")

let run_table1 crashes seed jobs json trace_dir coverage ring reference verbose =
  set_fastpath ~reference;
  let json_out = open_json_sink json in
  Printf.printf "Table 1: corruption per fault type (%d crash tests per cell)\n\n%!" crashes;
  let cfg =
    with_obs ~ring
      {
        Run.default with
        Run.seed = seed;
        trials = crashes;
        domains = jobs;
        trace_dir;
        coverage;
        progress = progress verbose;
      }
  in
  let t0 = Unix.gettimeofday () in
  let results = Reliability.run cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  print_string (Table.render (Reliability.to_table results));
  print_newline ();
  print_string (Table.render (Reliability.comparison_table results));
  (* --coverage without --trace-dir rolls metrics up through ring-less
     recorders; either way, show the campaign telemetry when we have it. *)
  (match results.Reliability.metrics with
  | Some snap when coverage ->
    Printf.printf "\ncampaign telemetry (%d counters, %d histograms):\n"
      (List.length snap.Trace.counters)
      (List.length snap.Trace.histograms);
    List.iter (fun (name, v) -> Printf.printf "  %-32s %12d\n" name v) snap.Trace.counters;
    List.iter
      (fun (name, values) ->
        if Array.length values > 0 then
          Printf.printf "  %-32s n=%d p50=%.0f p99=%.0f max=%d us\n" name
            (Array.length values)
            (Trace.percentile values 50.0)
            (Trace.percentile values 99.0)
            (Array.fold_left max min_int values))
      snap.Trace.histograms
  | _ -> ());
  Option.iter (fun out -> write_table1_json out ~crashes ~seed ~jobs ~wall_s results) json_out

let crashes_arg =
  Arg.(
    value
    & opt int 50
    & info [ "crashes" ] ~docv:"N"
        ~doc:"Crash tests per (system, fault type) cell. The paper used 50.")

let coverage_arg =
  Arg.(
    value & flag
    & info [ "coverage" ]
        ~doc:
          "Account campaign coverage/telemetry: check and fuzz runs append a \
           crash-space heatmap (and carry a coverage map in --json output); \
           table1 rolls per-trial metrics up even with tracing off.")

let table1_cmd =
  let doc =
    "Reproduce Table 1: how often crashes corrupt file data, and the MTTF \
     projection from those rates (paper: disk 15y, Rio 11y)."
  in
  Cmd.v
    (Cmd.info "table1" ~doc)
    Term.(
      const run_table1 $ crashes_arg $ seed_arg $ jobs_arg $ json_arg $ trace_dir_arg
      $ coverage_arg $ ring_capacity_arg $ reference_arg $ verbose_arg)

(* ---------------- table2 ---------------- *)

let run_table2 scale seed jobs backend verbose =
  Printf.printf "Table 2: running time by file-system configuration (scale %.2f, backend %s)\n\n%!"
    scale
    (Rio_disk.Backend.to_string backend);
  let ms =
    Performance.run
      {
        Run.default with
        Run.seed = seed;
        scale;
        domains = jobs;
        backend;
        progress = progress verbose;
      }
  in
  print_string (Table.render (Performance.to_table ms));
  print_newline ();
  print_string (Table.render (Performance.comparison_table ms))

let scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"S"
        ~doc:"Workload scale; 1.0 = the paper's 40 MB tree, 5 Sdet scripts, full Andrew.")

let table2_cmd =
  let doc = "Reproduce Table 2: performance of the eight file-system configurations." in
  Cmd.v (Cmd.info "table2" ~doc)
    Term.(const run_table2 $ scale_arg $ seed_arg $ jobs_arg $ backend_arg $ verbose_arg)

(* ---------------- ablation ---------------- *)

let run_ablation seed jobs verbose =
  let r =
    Ablation.run
      { Run.default with Run.seed = seed; domains = jobs; progress = progress verbose }
  in
  Printf.printf "Ablation: protection overhead (Table 2's last two rows)\n";
  print_string (Table.render (Ablation.protection_table r.Ablation.protection));
  Printf.printf "\nAblation: code-patching alternative (paper prose: 20-50%% slower)\n";
  print_string (Table.render (Ablation.code_patching_table r.Ablation.patching));
  Printf.printf "\nAblation: registry cost (paper: 40 bytes per 8 KB page)\n";
  print_string (Table.render (Ablation.registry_table r.Ablation.registry));
  Printf.printf "\nAblation: delayed-write window vs data loss (paper \194\1671)\n";
  print_string (Table.render (Ablation.delay_table r.Ablation.delay));
  Printf.printf "\nExtension: Rio with idle-period write-back (paper \194\1672.3 future work)\n";
  print_string (Table.render (Ablation.idle_writeback_table r.Ablation.idle));
  Printf.printf "\nExtension: sensitivity to disk speed (1996 vs modern)\n";
  print_string (Table.render (Ablation.disk_sensitivity_table r.Ablation.disk));
  Printf.printf "\nRelated work: Phoenix-style checkpointing vs Rio (paper \194\1676)\n";
  print_string (Table.render (Ablation.phoenix_table r.Ablation.phoenix));
  Printf.printf "\nRelated work: protection overhead on debit/credit (paper \194\1676)\n";
  print_string (Table.render (Ablation.debit_credit_table r.Ablation.debit))

let ablation_cmd =
  let doc = "Run the design-choice ablations from the paper's prose claims." in
  Cmd.v (Cmd.info "ablation" ~doc)
    Term.(const run_ablation $ seed_arg $ jobs_arg $ verbose_arg)

(* ---------------- messages ---------------- *)

let run_messages crashes seed _jobs _verbose =
  (* The census's stopping rule is inherently sequential (stop after the
     N-th crash over one interleaved fault cycle), so it stays serial;
     [-j] is accepted for CLI uniformity. *)
  Printf.printf
    "Crash-message census over %d crashes (mixed fault types, rio w/o protection)\n\n%!" crashes;
  let census = Reliability.message_census ~crashes ~seed_base:seed () in
  List.iter (fun (m, c) -> Printf.printf "%4d  %s\n" c m) census;
  Printf.printf "\n%d distinct messages (paper: 74 unique, 59 consistency, over 1950 crashes)\n"
    (List.length census)

let messages_cmd =
  let doc = "Census of distinct crash console messages (crash diversity, \194\1673.1)." in
  Cmd.v (Cmd.info "messages" ~doc)
    Term.(const run_messages $ crashes_arg $ seed_arg $ jobs_arg $ verbose_arg)

(* ---------------- trace ---------------- *)

let fault_arg =
  Arg.(
    value
    & opt string "copy-overrun"
    & info [ "fault" ] ~docv:"SLUG"
        ~doc:
          (Printf.sprintf "Fault type to inject: one of %s."
             (String.concat ", " (List.map Fault_type.slug Fault_type.all))))

let system_arg =
  Arg.(
    value
    & opt string "rio-noprot"
    & info [ "system" ] ~docv:"SLUG"
        ~doc:
          (Printf.sprintf "System under test: one of %s."
             (String.concat ", " (List.map Campaign.system_slug Campaign.all_systems))))

let out_arg =
  Arg.(
    value
    & opt string "trace.json"
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Chrome trace_event output (load in Perfetto or chrome://tracing).")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE" ~doc:"Also dump the raw event stream as JSON Lines.")

let run_trace seed fault_slug system_slug out jsonl _verbose =
  let fault =
    match Fault_type.of_slug fault_slug with
    | Some f -> f
    | None ->
      Printf.eprintf "riobench: unknown fault type %S (see riobench trace --help)\n%!"
        fault_slug;
      exit 1
  in
  let system =
    match
      List.find_opt (fun s -> Campaign.system_slug s = system_slug) Campaign.all_systems
    with
    | Some s -> s
    | None ->
      Printf.eprintf "riobench: unknown system %S (see riobench trace --help)\n%!"
        system_slug;
      exit 1
  in
  let cfg = Campaign.default_config in
  (* Like the campaign's cells, seeds that never crash inside the watchdog
     window are discarded; walk forward from [seed] until a trial crashes.
     A generous ring keeps the injection event in the recorder even on
     long trials. *)
  let max_attempts = 50 in
  let rec attempt i =
    if i >= max_attempts then begin
      Printf.eprintf
        "riobench: no crashing trial in %d attempts from seed %d (try another seed)\n%!"
        max_attempts seed;
      exit 1
    end;
    let obs = Trace.create ~capacity:(1 lsl 20) () in
    let o = Campaign.run_one ~obs cfg system fault ~seed:(seed + i) in
    if o.Campaign.discarded then attempt (i + 1) else (obs, o, seed + i)
  in
  let obs, outcome, used_seed = attempt 0 in
  Printf.printf "crash trial: %s, %s, seed %d%s\n\n" (Campaign.system_name system)
    (Fault_type.name fault) used_seed
    (if used_seed = seed then ""
     else Printf.sprintf " (seeds %d..%d discarded: no crash in window)" seed (used_seed - 1));
  (match outcome.Campaign.forensics with
  | Some f -> List.iter print_endline (Forensics.narrative f)
  | None -> ());
  Printf.printf "\noutcome: %s\n\n" (Format.asprintf "%a" Campaign.pp_outcome outcome);
  let meta =
    [
      ("system", Json.Str (Campaign.system_slug system));
      ("fault", Json.Str (Fault_type.slug fault));
      ("seed", Json.Int used_seed);
    ]
  in
  Export.write_chrome ~file:out ~meta obs;
  Printf.printf "wrote %s (open in Perfetto / chrome://tracing)\n" out;
  match jsonl with
  | Some file ->
    Export.write_jsonl ~file ~header:(Json.Obj meta) obs;
    Printf.printf "wrote %s\n" file
  | None -> ()

let trace_cmd =
  let doc =
    "Flight-record one seeded crash trial: print the forensic narrative \
     (injection, wild stores, crash, recovery) and dump a Chrome trace."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ seed_arg $ fault_arg $ system_arg $ out_arg $ jsonl_arg $ verbose_arg)

(* ---------------- vista ---------------- *)

let run_vista crashes seed jobs _verbose =
  let module V = Rio_harness.Vista_experiment in
  let module F = Rio_fault.Fault_type in
  Printf.printf
    "Fault injection against a database on Rio (the conclusions' promised experiment)\n\n%!";
  let tasks =
    List.concat_map
      (fun fault -> List.map (fun prot -> (fault, prot)) [ true; false ])
      [ F.Kernel_text; F.Pointer; F.Copy_overrun ]
  in
  let rows =
    Pool.map_list ~domains:jobs
      (fun (fault, prot) ->
        ( Printf.sprintf "%s, protection %s" (F.name fault) (if prot then "on" else "off"),
          V.run ~fault ~protection:prot
            { Run.default with Run.seed = seed; trials = crashes } ))
      tasks
  in
  print_string (Table.render (Rio_harness.Vista_experiment.summary_table rows));
  Printf.printf
    "\nA \"ledger violation\" is money not conserved after warm reboot + undo\n\
     recovery. Wild-store faults are stopped by protection; copy overruns\n\
     firing inside the database's own write window are the \194\1672.1 residual\n\
     vulnerability (shared by disks).\n"

let vista_cmd =
  let doc = "Fault-inject a Vista database on Rio and audit transaction atomicity." in
  Cmd.v (Cmd.info "vista" ~doc)
    Term.(const run_vista $ crashes_arg $ seed_arg $ jobs_arg $ verbose_arg)

(* ---------------- workloads ---------------- *)

let run_workloads scale _seed _jobs _verbose =
  let module Script = Rio_workload.Script in
  let module Andrew = Rio_workload.Andrew in
  let module Sdet = Rio_workload.Sdet in
  let module File_tree = Rio_workload.File_tree in
  Printf.printf "Workload characterization (scale %.2f)\n\n" scale;
  let show name ops =
    Format.printf "%-22s %a@.@." name Script.pp_stats (Script.describe ops)
  in
  let w = Rio_workload.Cp_rm.create ~total_bytes:(int_of_float (scale *. 40e6)) () in
  let tree =
    File_tree.generate
      (File_tree.default ~root:"/usr/src" ~total_bytes:(int_of_float (scale *. 40e6)))
  in
  show "cp+rm setup (source)" (File_tree.create_ops tree);
  show "cp phase" (File_tree.copy_ops tree ~src_root:"/usr/src" ~dst_root:"/tmp/copy");
  show "rm phase" (File_tree.remove_ops tree);
  ignore w;
  show "andrew (full)" (Andrew.ops (Andrew.create ~scale ()));
  let sdet = Sdet.create ~scripts:5 ~ops_per_script:(max 20 (int_of_float (scale *. 1200.))) () in
  (match Sdet.scripts sdet with
  | first :: _ -> show "sdet (one of 5 scripts)" first
  | [] -> ())

let workloads_cmd =
  let doc = "Describe the synthetic workloads' operation mixes." in
  Cmd.v (Cmd.info "workloads" ~doc)
    Term.(const run_workloads $ scale_arg $ seed_arg $ jobs_arg $ verbose_arg)

(* ---------------- check ---------------- *)

let scenario_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "scenario" ] ~docv:"SLUG"
        ~doc:
          (Printf.sprintf
             "Restrict to one scenario (repeatable): %s. Default: all of them; \
              two-task runs only with --interleave."
             (String.concat ", " (List.map (fun sc -> sc.Fuzzer.slug) Fuzzer.scenarios))))

let matrix_arg =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:
          "Run the configuration matrix: rio with and without protection must \
           survive every crash point; the shadow-copies-off and registry-off \
           ablations must be flagged. Exit status reflects whether every \
           verdict matched.")

let print_heatmap = function
  | Some cov ->
    print_newline ();
    print_string (Heatmap.render cov)
  | None -> ()

let interleave_arg =
  Arg.(
    value
    & opt int 0
    & info [ "interleave" ] ~docv:"N"
        ~doc:
          "Also explore $(docv) deterministic task interleavings of each \
           multi-task scenario: every crash point of every interleaving is \
           enumerated, reported under the slug <scenario>#i<j>. 0 (the \
           default) runs no multi-task scenario. Ignored with --matrix.")

let run_check seed jobs backend scenarios matrix interleave json coverage ring reference
    verbose =
  set_fastpath ~reference;
  let json_out = open_json_sink json in
  let cfg =
    with_obs ~ring
      { Run.default with Run.seed; domains = jobs; coverage; progress = progress verbose }
  in
  let header wall_s =
    [
      ("benchmark", Json.Str "check");
      ("seed", Json.Int seed);
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall_s);
    ]
  in
  match
    let t0 = Unix.gettimeofday () in
    let scenarios =
      match scenarios with [] -> None | slugs -> Some (List.map Fuzzer.scenario slugs)
    in
    if matrix then begin
      Printf.printf "Exhaustive crash-schedule check, configuration matrix (seed %d)\n\n%!"
        seed;
      let entries = Fuzzer.explore_matrix ?scenarios cfg in
      let wall_s = Unix.gettimeofday () -. t0 in
      print_string (Explorer.render_matrix entries);
      if coverage then
        print_heatmap
          (Some
             (Cov.merge_list
                (List.filter_map
                   (fun e -> e.Explorer.entry_report.Explorer.coverage)
                   entries)));
      Option.iter
        (fun out ->
          write_json_doc out ~header:(header wall_s)
            [ ("matrix", Explorer.matrix_json entries) ])
        json_out;
      if Explorer.matrix_ok entries then `Ok else `Violations
    end
    else begin
      Printf.printf "Exhaustive crash-schedule check (seed %d, backend %s)\n\n%!" seed
        (Rio_disk.Backend.to_string backend);
      let report =
        Fuzzer.explore ~spec:{ Explorer.rio_prot with Explorer.backend } ?scenarios ~interleave
          cfg
      in
      let wall_s = Unix.gettimeofday () -. t0 in
      print_string (Explorer.render report);
      if coverage then print_heatmap report.Explorer.coverage;
      Option.iter
        (fun out ->
          write_json_doc out ~header:(header wall_s)
            [ ("report", Explorer.report_json report) ])
        json_out;
      if Explorer.report_ok report then `Ok else `Violations
    end
  with
  | `Ok -> ()
  | `Violations -> exit 1
  | exception Invalid_argument msg ->
    Printf.eprintf "riobench: %s (see riobench check --help)\n%!" msg;
    exit 2

let check_cmd =
  let doc =
    "Check every crash schedule of scripted operations: enumerate each crash \
     boundary (store windows, registry updates, shadow flips, disk \
     completions, Vista undo-log steps), crash exactly there, warm-reboot, \
     and verify the recovered file system. Zero violations is exhaustive over \
     the enumeration, not sampled."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run_check $ seed_arg $ jobs_arg $ backend_arg $ scenario_arg $ matrix_arg
      $ interleave_arg $ json_arg $ coverage_arg $ ring_capacity_arg $ reference_arg
      $ verbose_arg)

(* ---------------- fuzz ---------------- *)

let trials_arg =
  Arg.(
    value
    & opt int 40
    & info [ "trials" ] ~docv:"N"
        ~doc:"Random programs to fuzz (each crashes at one random boundary).")

let max_ops_arg =
  Arg.(
    value
    & opt int Fuzzer.default_max_ops
    & info [ "max-ops" ] ~docv:"K" ~doc:"Maximum operations per generated program.")

let config_arg =
  Arg.(
    value
    & opt string "rio-prot"
    & info [ "config" ] ~docv:"SLUG"
        ~doc:
          "Configuration to fuzz (without --matrix): one of rio-prot, \
           rio-noprot, shadow-off, registry-off, rio-idle, wb-cold, \
           wb-order; with --tasks, also lock-off (rio-prot with \
           block-ownership locking disabled — the planted lost-update \
           ablation). Known-unsafe configurations (wb-order) must be \
           caught $(i,and) shrunk: exit 2 when caught, 1 when missed.")

let tasks_fuzz_arg =
  Arg.(
    value
    & opt int 1
    & info [ "tasks" ] ~docv:"T"
        ~doc:
          "Interleaving fuzz: run $(docv) concurrent tasks per trial under \
           the deterministic scheduler, crossing task interleavings with \
           crash points. --config rio-prot must fuzz clean (exit 1 on a \
           violation); --config lock-off is the ablation the fuzzer must \
           catch $(i,and) shrink (exit 2 when caught, 1 when missed). \
           Default 1: the single-task fuzzer. Incompatible with --matrix.")

let fuzz_matrix_arg =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:
          "Fuzz the configuration matrix: rio with and without protection must \
           fuzz clean; the shadow-copies-off and registry-off ablations must \
           be caught $(i,and) shrunk to a readable repro. Exit status reflects \
           whether every verdict matched.")

let find_spec config ~cmd =
  match
    List.find_opt (fun (s : Explorer.spec) -> s.Explorer.label = config) Explorer.fuzz_specs
  with
  | Some s -> s
  | None ->
    Printf.eprintf "riobench: unknown --config %S (see riobench %s --help)\n%!" config cmd;
    exit 2

(* A library call that rejected its spec (a cold spec where only warm
   recovery is audited): report the library's message, exit 2. *)
let or_exit_2 f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "riobench: %s\n%!" msg;
    exit 2

(* Exit status from the library's verdict [ok]: 0 for a safe
   configuration that passed, 1 for any miss, and 2 when a known-unsafe
   configuration was caught and shrunk — the verdict CI asserts on. *)
let exit_on_verdict ~ok ~expect_safe config =
  match (ok, expect_safe) with
  | true, true -> ()
  | false, true -> exit 1
  | true, false ->
    Printf.eprintf "riobench: %s ablation caught and shrunk\n%!" config;
    exit 2
  | false, false ->
    Printf.eprintf
      "riobench: %s ablation was NOT caught (or the repro did not shrink) — checker hole\n%!"
      config;
    exit 1

let run_fuzz trials max_ops seed jobs backend config tasks matrix json coverage ring reference
    verbose =
  set_fastpath ~reference;
  if trials <= 0 || max_ops <= 0 then begin
    Printf.eprintf "riobench: --trials and --max-ops must be positive\n%!";
    exit 2
  end;
  if tasks < 1 then begin
    Printf.eprintf "riobench: --tasks must be >= 1\n%!";
    exit 2
  end;
  if tasks > 1 && matrix then begin
    Printf.eprintf "riobench: --tasks and --matrix are incompatible\n%!";
    exit 2
  end;
  if config = "lock-off" && tasks < 2 then begin
    Printf.eprintf "riobench: --config lock-off needs --tasks >= 2\n%!";
    exit 2
  end;
  let json_out = open_json_sink json in
  let cfg =
    with_obs ~ring
      {
        Run.default with
        Run.seed;
        trials;
        domains = jobs;
        coverage;
        progress = progress verbose;
      }
  in
  let header wall_s =
    [
      ("benchmark", Json.Str "fuzz");
      ("seed", Json.Int seed);
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall_s);
    ]
  in
  let t0 = Unix.gettimeofday () in
  if tasks > 1 then begin
    (* Interleaving mode: T concurrent tasks per trial. "lock-off" is
       rio-prot with the ownership lock disabled — the planted
       lost-update ablation the fuzzer must catch and shrink. *)
    let locking = config <> "lock-off" in
    let spec = if locking then find_spec config ~cmd:"fuzz" else Explorer.rio_prot in
    let spec = { spec with Explorer.backend } in
    (* The header follows the run: a rejected spec prints nothing. *)
    let report = or_exit_2 (fun () -> Fuzzer.run_tasks ~spec ~locking ~max_ops ~tasks cfg) in
    let wall_s = Unix.gettimeofday () -. t0 in
    Printf.printf "Interleaving crash-schedule fuzz (seed %d, %d tasks, %s)\n\n%!" seed
      tasks config;
    print_string (Fuzzer.render_tasks report);
    if coverage then print_heatmap report.Fuzzer.tr_coverage;
    (* Wall-clock and job count stay out of the document (stderr only):
       CI cmp's the -j 1 and -j 2 JSONs byte for byte. *)
    Printf.eprintf "fuzz: %d interleaved trials in %.1f s (-j %d)\n%!" trials wall_s jobs;
    Option.iter
      (fun out ->
        write_json_doc out
          ~header:
            [
              ("benchmark", Json.Str "fuzz-tasks");
              ("config", Json.Str config);
              ("seed", Json.Int seed);
            ]
          [ ("report", Fuzzer.treport_json report) ])
      json_out;
    exit_on_verdict ~ok:(Fuzzer.treport_ok report) ~expect_safe:locking config
  end
  else if matrix then begin
    Printf.printf "Randomized crash-schedule fuzz, configuration matrix (seed %d)\n\n%!" seed;
    let entries = Fuzzer.run_matrix ~max_ops cfg in
    let wall_s = Unix.gettimeofday () -. t0 in
    print_string (Fuzzer.render_matrix entries);
    if coverage then
      print_heatmap
        (Some
           (Cov.merge_list
              (List.filter_map (fun e -> e.Fuzzer.entry_report.Fuzzer.coverage) entries)));
    Option.iter
      (fun out ->
        write_json_doc out ~header:(header wall_s) [ ("matrix", Fuzzer.matrix_json entries) ])
      json_out;
    if not (Fuzzer.matrix_ok entries) then exit 1
  end
  else begin
    let spec = { (find_spec config ~cmd:"fuzz") with Explorer.backend } in
    Printf.printf "Randomized crash-schedule fuzz (seed %d, %s)\n\n%!" seed config;
    let report = Fuzzer.run ~spec ~max_ops cfg in
    let wall_s = Unix.gettimeofday () -. t0 in
    print_string (Fuzzer.render report);
    if coverage then print_heatmap report.Fuzzer.coverage;
    Option.iter
      (fun out ->
        write_json_doc out ~header:(header wall_s) [ ("report", Fuzzer.report_json report) ])
      json_out;
    exit_on_verdict ~ok:(Fuzzer.report_ok report) ~expect_safe:spec.Explorer.expect_safe config
  end

let fuzz_cmd =
  let doc =
    "Fuzz crash schedules: run random operation programs (creat, append, \
     overwrite, mkdir, unlink, rename, Vista transactions) over a growing \
     tree, crash each at a random protocol boundary, warm-reboot, and audit \
     the atomicity contracts. Violations are delta-debugged down to a \
     minimal program + boundary and reported with a forensic trace. Output \
     is byte-identical at any -j."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ trials_arg $ max_ops_arg $ seed_arg $ jobs_arg $ backend_arg
      $ config_arg $ tasks_fuzz_arg $ fuzz_matrix_arg $ json_arg $ coverage_arg
      $ ring_capacity_arg $ reference_arg $ verbose_arg)

(* ---------------- cov ---------------- *)

let cov_only_arg =
  Arg.(
    value
    & opt (enum [ ("check", `Check); ("fuzz", `Fuzz); ("all", `All) ]) `All
    & info [ "only" ] ~docv:"WHICH"
        ~doc:"Which campaigns feed the map: $(b,check), $(b,fuzz), or $(b,all).")

let require_full_arg =
  Arg.(
    value & flag
    & info [ "require-full" ]
        ~doc:
          "Exit 3 if any enumerated boundary label class was never crashed \
           into — the CI coverage gate.")

let cov_json_arg =
  Arg.(
    value
    & opt string "BENCH_cov.json"
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Machine-readable coverage map (default $(b,BENCH_cov.json)). \
           Contains no wall-clock or job-count fields: equal campaigns \
           write byte-identical documents at any -j.")

let run_cov only require_full json config trials max_ops seed jobs backend ring reference
    verbose =
  set_fastpath ~reference;
  if trials <= 0 || max_ops <= 0 then begin
    Printf.eprintf "riobench: --trials and --max-ops must be positive\n%!";
    exit 2
  end;
  let spec = { (find_spec config ~cmd:"cov") with Explorer.backend } in
  let json_out = open_json_sink (Some json) in
  let cfg =
    with_obs ~ring
      {
        Run.default with
        Run.seed = seed;
        trials;
        domains = jobs;
        coverage = true;
        progress = progress verbose;
      }
  in
  let t0 = Unix.gettimeofday () in
  (* The header follows the check run: a rejected spec prints nothing. *)
  let check_report =
    match only with
    | `Fuzz -> None
    | `Check | `All -> Some (or_exit_2 (fun () -> Fuzzer.explore ~spec cfg))
  in
  Printf.printf "Crash-space coverage, %s (seed %d)\n\n%!" config seed;
  Option.iter
    (fun r ->
      Printf.printf "[check] %d scenarios, %d crash points, %d violations\n%!"
        (List.length r.Explorer.scenarios)
        (Explorer.crash_points r) (Explorer.violation_count r))
    check_report;
  let fuzz_report =
    match only with
    | `Check -> None
    | `Fuzz | `All ->
      let r = Fuzzer.run ~spec ~max_ops cfg in
      Printf.printf "[fuzz] %d trials of <= %d ops, %d boundaries, %d violations\n%!"
        r.Fuzzer.trials r.Fuzzer.max_ops r.Fuzzer.boundaries r.Fuzzer.violations;
      Some r
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let covs =
    List.filter_map Fun.id
      [
        Option.bind check_report (fun r -> r.Explorer.coverage);
        Option.bind fuzz_report (fun r -> r.Fuzzer.coverage);
      ]
  in
  let merged = Cov.merge_list covs in
  print_newline ();
  print_string (Heatmap.render merged);
  (* Wall-clock telemetry goes to stderr only: stdout and the JSON stay
     byte-identical at any -j. *)
  Printf.eprintf "cov: %d crash trials in %.1f s (%.0f trials/s, -j %d)\n%!"
    (Cov.crash_trials merged) wall_s
    (float_of_int (Cov.crash_trials merged) /. Float.max wall_s 1e-9)
    jobs;
  let campaign_json =
    List.filter_map Fun.id
      [
        Option.map
          (fun r ->
            ( "check",
              Json.Obj
                [
                  ("crash_points", Json.Int (Explorer.crash_points r));
                  ("violations", Json.Int (Explorer.violation_count r));
                ] ))
          check_report;
        Option.map
          (fun (r : Fuzzer.report) ->
            ( "fuzz",
              Json.Obj
                [
                  ("trials", Json.Int r.Fuzzer.trials);
                  ("max_ops", Json.Int r.Fuzzer.max_ops);
                  ("boundaries", Json.Int r.Fuzzer.boundaries);
                  ("violations", Json.Int r.Fuzzer.violations);
                ] ))
          fuzz_report;
      ]
  in
  Option.iter
    (fun out ->
      write_json_doc out
        ~header:
          [
            ("benchmark", Json.Str "cov");
            ("config", Json.Str config);
            ("seed", Json.Int seed);
          ]
        (campaign_json @ [ ("coverage", Cov.to_json merged) ]))
    json_out;
  let violations =
    (match check_report with Some r -> Explorer.violation_count r | None -> 0)
    + match fuzz_report with Some r -> r.Fuzzer.violations | None -> 0
  in
  if violations > 0 then exit 1;
  if require_full && Cov.unhit_classes merged <> [] then begin
    Printf.eprintf "riobench: coverage gate failed: unhit label classes: %s\n%!"
      (String.concat ", " (Cov.unhit_classes merged));
    exit 3
  end

let cov_cmd =
  let doc =
    "Map what the crash campaigns actually covered: run the exhaustive \
     checker and/or the fuzzer with coverage accounting on, merge the \
     per-trial signatures deterministically, and print the crash-space \
     heatmap (boundary label class x crash-ordinal bucket, and x operation \
     kind). Writes BENCH_cov.json; stdout and the JSON are byte-identical \
     at any -j. --require-full turns the map into a CI gate."
  in
  Cmd.v (Cmd.info "cov" ~doc)
    Term.(
      const run_cov $ cov_only_arg $ require_full_arg $ cov_json_arg $ config_arg
      $ trials_arg $ max_ops_arg $ seed_arg $ jobs_arg $ backend_arg $ ring_capacity_arg
      $ reference_arg $ verbose_arg)

(* ---------------- microbench ---------------- *)

(* The probes the CI perf-smoke gate reads against BENCH_cpu.json: the
   interpreted CPU loop (fast and reference), a template restore, and an
   end-to-end fuzz crash trial. perfbench/ times every other phase (world
   build, boot, mount, warm reboot, workload steps, campaign trials). *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A representative instruction mix (2 ALU, 1 load, 1 store, 1 jump)
   spinning in a tight loop; the Machine's budget is the stop condition. *)
let cpu_probe_instrs = 4_000_000

let cpu_probe ~fast =
  let module Isa = Rio_cpu.Isa in
  let module Machine = Rio_cpu.Machine in
  let module Phys_mem = Rio_mem.Phys_mem in
  let was = Rio_util.Fastpath.on () in
  Rio_util.Fastpath.set fast;
  Fun.protect ~finally:(fun () -> Rio_util.Fastpath.set was) @@ fun () ->
  let mem = Phys_mem.create ~bytes_total:(32 * Phys_mem.page_size) in
  let mmu = Rio_vm.Mmu.create ~mem_pages:(Phys_mem.page_count mem) ~tlb_entries:16 () in
  let m = Machine.create ~mem ~mmu in
  List.iteri
    (fun i instr -> Phys_mem.write_u32 mem (i * 4) (Isa.encode instr))
    [
      Isa.Ori (10, 0, Phys_mem.page_size) (* r10 = scratch page *);
      Isa.Addi (1, 1, 1);
      Isa.St (1, 10, 0);
      Isa.Ld (3, 10, 0);
      Isa.Add (4, 4, 3);
      Isa.Jmp (-4);
    ];
  Machine.set_pc m 0;
  (* Warm up (fills the decode cache on the fast path). *)
  ignore (Machine.run m ~max_instructions:100_000);
  let before = Machine.instructions_retired m in
  let state, wall = time (fun () -> Machine.run m ~max_instructions:cpu_probe_instrs) in
  (match state with
  | Machine.Running -> ()
  | Machine.Halted -> failwith "microbench: cpu probe halted unexpectedly"
  | Machine.Trapped trap ->
    failwith ("microbench: cpu probe trapped: " ^ Machine.trap_to_string trap));
  let instrs = Machine.instructions_retired m - before in
  (instrs, wall)

(* Snapshot-restore cost: freeze a populated world once, then repeatedly
   dirty it the way an attempt would (file writes plus a directory op)
   and rewind. Reports ms/restore and dirty pages blitted back per
   restore — what the template path pays instead of a full rebuild. *)
let restore_probe ~seed ~iters =
  let module World = Rio_world.World in
  let module Fs = Rio_fs.Fs in
  let w = World.create ~seed () in
  let fs = World.fs w in
  for i = 0 to 7 do
    Fs.write_file fs
      (Printf.sprintf "/f%d" i)
      (Rio_util.Pattern.fill ~seed:(seed + i) ~len:6000)
  done;
  World.freeze w;
  let (), wall =
    time (fun () ->
        for i = 1 to iters do
          Fs.write_file fs "/scratch"
            (Rio_util.Pattern.fill ~seed:(seed lxor i) ~len:24_000);
          Fs.mkdir fs "/dir";
          Fs.unlink fs "/scratch";
          ignore (World.restore w : int)
        done)
  in
  let pages = World.pages_restored w in
  World.dispose w;
  (wall, pages)

let fuzz_probe ~seed ~trials =
  let cfg = { Run.default with Run.seed = seed; trials; domains = 1 } in
  time (fun () ->
      ignore (Fuzzer.run ~spec:Explorer.rio_prot ~max_ops:Fuzzer.default_max_ops cfg))

let run_microbench seed json reference _verbose =
  set_fastpath ~reference;
  let json_out = open_json_sink json in
  let mode = if reference then "reference" else "fast" in
  Printf.printf "Microbenchmarks (%s data path, seed %d)\n\n%!" mode seed;
  (* CPU in both modes regardless of --reference: the ratio is the point. *)
  let cpu_fast_instrs, cpu_fast_s = cpu_probe ~fast:true in
  let cpu_ref_instrs, cpu_ref_s = cpu_probe ~fast:false in
  let restore_iters = 50 in
  let restore_s, restore_pages = restore_probe ~seed ~iters:restore_iters in
  let fuzz_trials = 12 in
  let (), fuzz_s = fuzz_probe ~seed ~trials:fuzz_trials in
  let per denom v = v /. float_of_int denom in
  let ips instrs s = float_of_int instrs /. s in
  let cpu_fast_ips = ips cpu_fast_instrs cpu_fast_s in
  let cpu_ref_ips = ips cpu_ref_instrs cpu_ref_s in
  let ns_per_trial = per fuzz_trials fuzz_s *. 1e9 in
  Printf.printf "cpu (fast)        %10.0f instr/s  (%.1f ns/instr)\n" cpu_fast_ips
    (1e9 /. cpu_fast_ips);
  Printf.printf "cpu (reference)   %10.0f instr/s  (%.1f ns/instr)\n" cpu_ref_ips
    (1e9 /. cpu_ref_ips);
  Printf.printf "cpu speedup       %10.2fx\n" (cpu_fast_ips /. cpu_ref_ips);
  Printf.printf "world restore     %10.3f ms  (%.1f dirty pages/restore)\n"
    (per restore_iters restore_s *. 1e3)
    (per restore_iters (float_of_int restore_pages));
  Printf.printf "fuzz crash trial  %10.1f ms  (%.0f ns/trial, %.1f trials/s)\n"
    (ns_per_trial /. 1e6) ns_per_trial
    (float_of_int fuzz_trials /. fuzz_s);
  let probe name extra wall_s = (name, Json.Obj (extra @ [ ("wall_s", Json.Float wall_s) ])) in
  Option.iter
    (fun out ->
      write_json_doc out
        ~header:
          [
            ("benchmark", Json.Str "microbench"); ("mode", Json.Str mode); ("seed", Json.Int seed);
          ]
        [
          probe "cpu_fast"
            [
              ("instructions", Json.Int cpu_fast_instrs);
              ("instr_per_s", Json.Float cpu_fast_ips);
              ("ns_per_instr", Json.Float (1e9 /. cpu_fast_ips));
            ]
            cpu_fast_s;
          probe "cpu_reference"
            [
              ("instructions", Json.Int cpu_ref_instrs);
              ("instr_per_s", Json.Float cpu_ref_ips);
              ("ns_per_instr", Json.Float (1e9 /. cpu_ref_ips));
            ]
            cpu_ref_s;
          ("cpu_speedup", Json.Float (cpu_fast_ips /. cpu_ref_ips));
          probe "world_restore"
            [
              ("iters", Json.Int restore_iters);
              ("ms_per_restore", Json.Float (per restore_iters restore_s *. 1e3));
              ( "pages_per_restore",
                Json.Float (per restore_iters (float_of_int restore_pages)) );
              ("restores_per_s", Json.Float (float_of_int restore_iters /. restore_s));
            ]
            restore_s;
          probe "fuzz_trial"
            [
              ("trials", Json.Int fuzz_trials);
              ("ns_per_trial", Json.Float ns_per_trial);
              ("trials_per_s", Json.Float (float_of_int fuzz_trials /. fuzz_s));
            ]
            fuzz_s;
        ])
    json_out

let microbench_cmd =
  let doc =
    "Time the simulator's hot paths the CI perf-smoke gate tracks: the \
     interpreted CPU loop (fast vs reference decode), a template snapshot \
     restore, and an end-to-end fuzz crash trial. Reports instr/s and \
     ns/trial; --json writes the numbers the gate compares against \
     BENCH_cpu.json. perfbench/ times the other phases."
  in
  Cmd.v (Cmd.info "microbench" ~doc)
    Term.(const run_microbench $ seed_arg $ json_arg $ reference_arg $ verbose_arg)

(* ---------------- all ---------------- *)

let run_all crashes scale seed jobs verbose =
  run_table1 crashes seed jobs None None false None false verbose;
  print_newline ();
  run_table2 scale seed jobs Rio_disk.Backend.Scsi verbose;
  print_newline ();
  run_ablation seed jobs verbose

let all_cmd =
  let doc = "Run every experiment (table1, table2, ablations)." in
  Cmd.v
    (Cmd.info "all" ~doc)
    Term.(const run_all $ crashes_arg $ scale_arg $ seed_arg $ jobs_arg $ verbose_arg)

let main_cmd =
  let doc = "Reproduce the experiments of 'The Rio File Cache' (ASPLOS 1996)." in
  let info = Cmd.info "riobench" ~version:"1.0" ~doc in
  Cmd.group info
    [
      table1_cmd; table2_cmd; ablation_cmd; messages_cmd; trace_cmd;
      workloads_cmd; vista_cmd; check_cmd; fuzz_cmd; cov_cmd; microbench_cmd; all_cmd;
    ]

let () =
  (* Campaign trials allocate short-lived buffers at a high rate (pattern
     slices, block images, decode pages); a larger minor heap keeps them
     out of the major heap and measurably cuts GC time on the long
     benchmark runs. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  exit (Cmd.eval main_cmd)
