(* Tests for the experiment harnesses: Table 1, Table 2, MTTF, ablations,
   and the paper-data constants. *)

module Reliability = Rio_harness.Reliability
module Performance = Rio_harness.Performance
module Ablation = Rio_harness.Ablation
module Paper_data = Rio_harness.Paper_data
module Run = Rio_harness.Run
module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type

let check = Alcotest.check

(* ---------------- paper data ---------------- *)

let test_table1_rows_sum_to_totals () =
  let d, n, p =
    List.fold_left
      (fun (d, n, p) (_, (a, b, c)) -> (d + a, n + b, p + c))
      (0, 0, 0) Paper_data.table1_corruptions
  in
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int) "rows sum to published totals"
    Paper_data.table1_totals (d, n, p)

let test_table1_thirteen_rows () =
  check Alcotest.int "13 rows" 13 (List.length Paper_data.table1_corruptions);
  List.iter
    (fun (label, _) ->
      check Alcotest.bool label true (Fault_type.of_name label <> None))
    Paper_data.table1_corruptions

let test_table2_has_eight_rows () =
  check Alcotest.int "8 systems" 8 (List.length Paper_data.table2);
  List.iter
    (fun (r : Paper_data.perf_row) ->
      check Alcotest.bool (r.Paper_data.label ^ " cp split") true
        (abs_float (r.Paper_data.cp +. r.Paper_data.rm -. r.Paper_data.cp_rm) < 0.6))
    Paper_data.table2

let test_table2_labels_match_configurations () =
  List.iter
    (fun (c : Performance.configuration) ->
      check Alcotest.bool c.Performance.label true
        (Paper_data.table2_row c.Performance.label <> None))
    Performance.configurations

(* ---------------- mttf ---------------- *)

let test_mttf_formula () =
  (* 7/650 at a crash every 2 months ~ 15.5 years. *)
  let rate = 7. /. 650. in
  let years = Reliability.mttf_years ~corruption_rate:rate in
  check Alcotest.bool "close to the paper's 15" true (years > 14. && years < 17.);
  check Alcotest.bool "zero rate is infinite" true
    (Reliability.mttf_years ~corruption_rate:0. = Float.infinity)

(* ---------------- reliability harness (scaled down) ---------------- *)

let quick_config =
  {
    Campaign.default_config with
    Campaign.warmup_steps = 15;
    max_steps = 70;
    memtest_files = 10;
    memtest_file_bytes = 16 * 1024;
    background_andrew = 1;
    andrew_scale = 0.02;
  }

let test_reliability_collects_requested_crashes () =
  let results =
    Reliability.run ~campaign:quick_config
      ~systems:[ Campaign.Rio_without_protection ]
      ~faults:[ Fault_type.Kernel_text; Fault_type.Delete_branch ]
      { Run.default with Run.trials = 3; seed = 100 }
  in
  check Alcotest.int "two cells" 2 (List.length results.Reliability.cells);
  List.iter
    (fun (_, _, c) ->
      check Alcotest.int "3 crashes per cell" 3 c.Reliability.crashes;
      check Alcotest.bool "attempts >= crashes" true (c.Reliability.attempts >= c.Reliability.crashes))
    results.Reliability.cells;
  let corr, crashes = Reliability.system_total results Campaign.Rio_without_protection in
  check Alcotest.int "totals add up" 6 crashes;
  check Alcotest.bool "corruptions bounded" true (corr <= crashes)

let test_reliability_tables_render () =
  let results =
    Reliability.run ~campaign:quick_config ~systems:[ Campaign.Rio_with_protection ]
      ~faults:[ Fault_type.Copy_overrun ]
      { Run.default with Run.trials = 2; seed = 200 }
  in
  let s = Rio_util.Table.render (Reliability.to_table results) in
  check Alcotest.bool "table mentions the fault" true
    (String.length s > 0
    &&
    let re = "copy overrun" in
    let found = ref false in
    for i = 0 to String.length s - String.length re do
      if String.sub s i (String.length re) = re then found := true
    done;
    !found);
  ignore (Rio_util.Table.render (Reliability.comparison_table results))

let test_parallel_run_matches_serial () =
  (* The tentpole guarantee: a campaign on a 4-domain pool produces a
     [results] value structurally equal to the serial run — same cells in
     the same order, same counts, same unique-message totals. *)
  let run domains =
    Reliability.run ~campaign:quick_config
      ~systems:[ Campaign.Disk_based; Campaign.Rio_without_protection ]
      ~faults:[ Fault_type.Kernel_text; Fault_type.Pointer ]
      { Run.default with Run.trials = 2; seed = 77; domains }
  in
  let serial = run 1 and parallel = run 4 in
  check Alcotest.bool "parallel results equal serial results" true (serial = parallel);
  check Alcotest.string "rendered tables byte-identical"
    (Rio_util.Table.render (Reliability.to_table serial))
    (Rio_util.Table.render (Reliability.to_table parallel))

(* ---------------- performance harness (scaled down) ---------------- *)

let test_performance_ordering () =
  let ms =
    Performance.run
      ~only:[ "memory-fs"; "ufs"; "wt-write"; "rio-prot" ]
      { Run.default with Run.scale = 0.04; seed = 1 }
  in
  let time label =
    match List.find_opt (fun m -> m.Performance.config_label = label) ms with
    | Some m -> m.Performance.cp_s +. m.Performance.rm_s
    | None -> Alcotest.failf "missing row %s" label
  in
  (* The paper's headline ordering must hold even at 4% scale. *)
  check Alcotest.bool "mfs <= rio" true (time "memory-fs" <= time "rio-prot");
  check Alcotest.bool "rio < ufs" true (time "rio-prot" < time "ufs");
  check Alcotest.bool "ufs <= wt-write" true (time "ufs" <= time "wt-write")

let test_performance_rio_beats_writethrough_on_sdet () =
  let ms =
    Performance.run ~only:[ "wt-write"; "rio-prot" ]
      { Run.default with Run.scale = 0.04; seed = 1 }
  in
  match Performance.speedup ms ~num:"wt-write" ~den:"rio-prot" with
  | [ _; sdet_ratio; _ ] -> check Alcotest.bool "substantially faster" true (sdet_ratio > 2.)
  | _ -> Alcotest.fail "expected three ratios"

let test_measure_workload_cp_rm_split () =
  let config = List.hd Performance.configurations in
  let cp, rm = Performance.measure_workload config ~scale:0.03 ~seed:1 `Cp_rm in
  check Alcotest.bool "both phases measured" true (cp > 0. && rm >= 0.)

(* Write-through-on-close flushes synchronously at close, and the update
   daemon's flush can run inside that flush's disk wait: the cell must
   still complete. *)
let test_wt_close_sdet_half_scale () =
  let config = List.find (fun c -> c.Performance.label = "wt-close") Performance.configurations in
  let sdet, _ = Performance.measure_workload config ~scale:0.5 ~seed:1 `Sdet in
  check Alcotest.bool "sdet measured" true (sdet > 0.)

(* ---------------- ablations (scaled down) ---------------- *)

let test_protection_overhead_small () =
  let r = Ablation.protection_overhead ~scale:0.05 ~seed:2 () in
  check Alcotest.bool "toggles happened" true (r.Ablation.toggles > 0);
  (* The paper's claim: essentially no overhead. Allow a lenient 10%. *)
  check Alcotest.bool "small overhead" true (r.Ablation.overhead_pct < 10.)

let test_code_patching_in_band () =
  let r = Ablation.code_patching ~seed:2 () in
  check Alcotest.bool "store density sane" true
    (r.Ablation.store_density > 0.01 && r.Ablation.store_density < 0.5);
  check Alcotest.bool "slowdown in a plausible band" true
    (r.Ablation.slowdown_pct > 5. && r.Ablation.slowdown_pct < 80.)

let test_registry_cost_small () =
  let r = Ablation.registry_cost ~steps:150 ~seed:2 () in
  check Alcotest.int "paper's 40 bytes" 40 r.Ablation.bytes_per_page;
  check Alcotest.bool "updates counted" true (r.Ablation.registry_updates > 0);
  check Alcotest.bool "sub-percent space" true (r.Ablation.space_overhead_pct < 1.);
  check Alcotest.bool "tiny time" true (r.Ablation.time_overhead_pct < 1.)

let test_idle_writeback_helps_under_churn () =
  let r = Ablation.idle_writeback ~seed:4 () in
  check Alcotest.bool "evictions happened" true (r.Ablation.rio_evictions > 0);
  check Alcotest.bool "idle write-back not slower" true
    (r.Ablation.rio_idle_s <= r.Ablation.rio_s *. 1.02)

let test_modern_disk_shrinks_gap () =
  match Ablation.modern_disk_sensitivity ~seed:4 () with
  | [ old_era; modern ] ->
    check Alcotest.bool "rio still wins on both" true
      (old_era.Ablation.ratio > 1.5 && modern.Ablation.ratio > 1.5);
    check Alcotest.bool "gap shrinks with a faster disk" true
      (modern.Ablation.ratio < old_era.Ablation.ratio)
  | _ -> Alcotest.fail "expected two eras"

let test_debit_credit_overhead_low () =
  let r = Ablation.debit_credit ~transactions:200 ~seed:5 () in
  check Alcotest.bool "overhead below Sullivan-Stonebraker's 7%" true
    (r.Ablation.overhead_pct < 7.)

let test_phoenix_loses_rio_does_not () =
  match Ablation.phoenix_comparison ~steps:150 ~seed:5 () with
  | [ p5; p30; rio ] ->
    check Alcotest.int "rio loses nothing" 0 rio.Ablation.lost_bytes;
    check Alcotest.bool "phoenix checkpointed" true (p5.Ablation.checkpoints > p30.Ablation.checkpoints);
    check Alcotest.bool "longer interval loses at least as much" true
      (p30.Ablation.lost_bytes >= p5.Ablation.lost_bytes)
  | _ -> Alcotest.fail "expected three schemes"

let test_vista_experiment_atomic_under_wild_stores () =
  let s =
    Rio_harness.Vista_experiment.run ~fault:Fault_type.Kernel_text ~protection:true
      { Run.default with Run.trials = 4; seed = 300 }
  in
  check Alcotest.int "four crashes collected" 4 s.Rio_harness.Vista_experiment.crashes;
  check Alcotest.bool "atomicity holds under text faults" true
    (s.Rio_harness.Vista_experiment.violations = 0)

let test_delay_sweep_shape () =
  let points = Ablation.delay_sweep ~steps:150 ~seed:2 () in
  let lost_of label =
    match List.find_opt (fun p -> p.Ablation.label = label) points with
    | Some p -> p.Ablation.lost_bytes
    | None -> Alcotest.failf "missing point %s" label
  in
  (* Rio loses nothing; a long delay loses at least as much as a short one. *)
  check Alcotest.int "rio loses nothing" 0 (lost_of "rio (warm reboot)");
  check Alcotest.bool "longer delay loses >= shorter" true
    (lost_of "delay 2.0min" >= lost_of "delay 1.00s")

let () =
  Alcotest.run "rio_harness"
    [
      ( "paper_data",
        [
          Alcotest.test_case "table1 sums" `Quick test_table1_rows_sum_to_totals;
          Alcotest.test_case "table1 rows" `Quick test_table1_thirteen_rows;
          Alcotest.test_case "table2 rows" `Quick test_table2_has_eight_rows;
          Alcotest.test_case "labels match" `Quick test_table2_labels_match_configurations;
        ] );
      ("mttf", [ Alcotest.test_case "formula" `Quick test_mttf_formula ]);
      ( "reliability",
        [
          Alcotest.test_case "collects crashes" `Slow test_reliability_collects_requested_crashes;
          Alcotest.test_case "tables render" `Slow test_reliability_tables_render;
          Alcotest.test_case "parallel matches serial" `Slow test_parallel_run_matches_serial;
        ] );
      ( "performance",
        [
          Alcotest.test_case "ordering" `Slow test_performance_ordering;
          Alcotest.test_case "rio vs write-through" `Slow
            test_performance_rio_beats_writethrough_on_sdet;
          Alcotest.test_case "cp/rm split" `Slow test_measure_workload_cp_rm_split;
          Alcotest.test_case "wt-close sdet at half scale" `Slow test_wt_close_sdet_half_scale;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "protection overhead" `Slow test_protection_overhead_small;
          Alcotest.test_case "code patching band" `Slow test_code_patching_in_band;
          Alcotest.test_case "registry cost" `Slow test_registry_cost_small;
          Alcotest.test_case "delay sweep shape" `Slow test_delay_sweep_shape;
          Alcotest.test_case "idle write-back" `Slow test_idle_writeback_helps_under_churn;
          Alcotest.test_case "modern disk" `Slow test_modern_disk_shrinks_gap;
          Alcotest.test_case "phoenix comparison" `Slow test_phoenix_loses_rio_does_not;
          Alcotest.test_case "debit/credit overhead" `Slow test_debit_credit_overhead_low;
          Alcotest.test_case "vista under fault injection" `Slow
            test_vista_experiment_atomic_under_wild_stores;
        ] );
    ]
