(* The repository benchmark: one workload per invocation, a closed loop
   with one client, timed for --seconds of wall time after its set-up.

     main.exe --workload campaign|fuzz|fuzz-tasks|table2
              [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

   --trace 0 measures the end-to-end metrics with tracing off. --trace 1
   pairs every op with a traced composition of the same public calls and
   reports the per-layer metrics; --out then also writes the spans as
   Chrome trace_event JSON. --smoke shrinks every op to about 1% of its
   size. An untraced run forks the helper that runs the host-speed probe
   (see Meter), then samples its set-up time by running itself with
   --setup-only (process start through the warm-up op, then exit) in
   fresh processes. The last line of standard output is the result as one
   JSON object. Exit codes: 0 after a run (failed ops are counted, not fatal),
   2 for bad arguments or an unwritable --out, 1 when a traced
   composition does not reproduce the untraced result. *)

let workloads = [ "campaign"; "fuzz"; "fuzz-tasks"; "table2" ]

(* Every per-layer metric, in BENCHMARK.json's order. A workload reports 0
   for a layer it does not exercise. *)
let per_layer =
  [
    ("op_ms.p50", "ms");
    ("world.create_ms.p50", "ms");
    ("kernel.activity_ms", "ms");
    ("cpu.instructions", "count");
    ("cpu.instr_per_s", "1/s");
    ("fault.inject_ms", "ms");
    ("workload.memtest_ms", "ms");
    ("workload.andrew_ms", "ms");
    ("workload.steps", "count");
    ("workload.audit_ms", "ms");
    ("rio.warm_reboot_ms", "ms");
    ("kernel.boot_warm_ms", "ms");
    ("fs.mount_ms", "ms");
    ("rio.recovery_sim_ms", "sim_ms");
    ("fs.fsck_ms", "ms");
    ("campaign.crash_ratio", "ratio");
    ("workload.generate_ms", "ms");
    ("workload.cp_setup_ms", "ms");
    ("workload.cp_ms", "ms");
    ("workload.rm_ms", "ms");
    ("workload.sdet_ms", "ms");
    ("workload.andrew_cell_ms", "ms");
    ("rio.protection_toggles", "count");
    ("rio.registry_updates", "count");
    ("rio.checksum_updates", "count");
    ("fs.meta_cache.hit_ratio", "ratio");
    ("fs.data_cache.hit_ratio", "ratio");
    ("fs.writebacks", "count");
    ("disk.writes", "count");
    ("disk.sectors_written", "count");
    ("disk.seeks", "count");
    ("disk.busy_s", "sim_s");
    ("disk.write_amp", "ratio");
    ("sim_s.rio-prot", "sim_s");
    ("sim_s.ufs", "sim_s");
    ("sim_s.ufs-delayed", "sim_s");
    ("sim_s.wt-write", "sim_s");
    ("prot_cost_pct", "%");
    ("table2.aborted_cells", "count");
    ("fuzz.count_pass_ms.p50", "ms");
    ("fuzz.crash_pass_ms.p50", "ms");
    ("task.count_pass_ms.p50", "ms");
    ("task.crash_pass_ms.p50", "ms");
    ("check.boundaries_per_trial", "count");
    ("fuzz.reached_ratio", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace_overhead_pct", "%");
    ("trace.unattributed_pct", "%");
  ]

let layer_metrics (got : Meter.metric list) =
  List.iter
    (fun (m : Meter.metric) ->
      match List.assoc_opt m.Meter.name per_layer with
      | Some u when u = m.Meter.unit -> ()
      | _ -> failwith ("unlisted per-layer metric " ^ m.Meter.name))
    got;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Meter.metric) -> m.Meter.name = name) got with
      | Some m -> m
      | None -> Meter.metric name unit 0.)
    per_layer

let warmup workload ~seed ~smoke =
  match workload with
  | "campaign" -> Campaign_load.warmup ()
  | "fuzz" -> Fuzz_load.warmup Fuzz_load.Solo ~seed
  | "fuzz-tasks" -> Fuzz_load.warmup Fuzz_load.Tasks ~seed
  | _ -> Table2_load.warmup ~seed ~smoke

let run_untraced workload ~setup ~seed ~seconds ~smoke =
  match workload with
  | "campaign" -> Campaign_load.run ~setup ~seed ~seconds ~smoke
  | "fuzz" -> Fuzz_load.run Fuzz_load.Solo ~setup ~seed ~seconds ~smoke
  | "fuzz-tasks" -> Fuzz_load.run Fuzz_load.Tasks ~setup ~seed ~seconds ~smoke
  | _ -> Table2_load.run ~setup ~seed ~seconds ~smoke

let run_traced workload ~seed ~seconds ~smoke sp =
  match workload with
  | "campaign" -> Campaign_load.trace ~seed ~seconds ~smoke sp
  | "fuzz" -> Fuzz_load.trace Fuzz_load.Solo ~seed ~seconds ~smoke sp
  | "fuzz-tasks" -> Fuzz_load.trace Fuzz_load.Tasks ~seed ~seconds ~smoke sp
  | _ -> Table2_load.trace ~seed ~seconds ~smoke sp

let bad_args msg =
  prerr_endline ("main.exe: " ^ msg);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let smoke = ref false and out = ref None and setup_only = ref false in
  let usage =
    "main.exe --workload " ^ String.concat "|" workloads
    ^ " [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1; 2 is held out)");
      ("--seconds", Arg.Set_float seconds, "S  timed wall seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run (default 0)");
      ("--smoke", Arg.Set smoke, " ops at about 1% of their size");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  Chrome trace output (--trace 1)");
      ( "--setup-only",
        Arg.Set setup_only,
        " run only the warm-up op and exit (one sample of setup_s)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload = !workload and seed = !seed and seconds = !seconds and smoke = !smoke in
  if not (List.mem workload workloads) then bad_args ("unknown --workload\n" ^ usage);
  if seed < 0 then bad_args "--seed must be >= 0";
  if not (seconds >= 0.) then bad_args "--seconds must be >= 0";
  if !trace <> 0 && !trace <> 1 then bad_args "--trace must be 0 or 1";
  if !out <> None && !trace = 0 then bad_args "--out needs --trace 1";
  let out =
    Option.map
      (fun f -> try open_out f with Sys_error msg -> bad_args ("cannot write --out: " ^ msg))
      !out
  in
  if !setup_only then warmup workload ~seed ~smoke
  else if !trace = 0 then begin
    Meter.start_prober ();
    let setup =
      Meter.setup_s
        ([ "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" ]
        @ if smoke then [ "--smoke" ] else [])
    in
    warmup workload ~seed ~smoke;
    let r = run_untraced workload ~setup ~seed ~seconds ~smoke in
    Meter.print_report stdout r;
    print_endline (Meter.result_line r)
  end
  else begin
    warmup workload ~seed ~smoke;
    let sp = Spans.create () in
    let r, pairing = run_traced workload ~seed ~seconds ~smoke sp in
    let metrics =
      layer_metrics
        (r.Meter.metrics
        @ [
            Meter.metric "trace_overhead_pct" "%" (Meter.overhead_pct pairing);
            Meter.metric "trace.unattributed_pct" "%" (Spans.unattributed_pct sp);
          ])
    in
    let r = { r with Meter.metrics; correct = r.Meter.correct && pairing.Meter.mismatches = 0 } in
    Spans.pp_summary stdout sp;
    Meter.print_report stdout r;
    Option.iter
      (fun oc ->
        output_string oc (Rio_util.Json.to_string (Spans.chrome_json sp));
        close_out oc)
      out;
    print_endline (Meter.result_line r);
    if pairing.Meter.mismatches > 0 then exit 1
  end
