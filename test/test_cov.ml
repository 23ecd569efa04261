(* Tests for Rio_cov: crash-space coverage accounting. The load-bearing
   properties are (a) the cell model (label classing, ordinal bucketing)
   is stable, (b) merging is order-respecting bookkeeping so campaigns
   are byte-identical at any domain count — checked end-to-end through
   both the explorer and the fuzzer, text and JSON, (c) the fuzzer's
   unhit-class feedback actually reaches full class coverage, and (d)
   the Run-config observability knobs clamp out-of-range values and say
   so. *)

module Cov = Rio_cov.Cov
module Heatmap = Rio_cov.Heatmap
module Explorer = Rio_check.Explorer
module Fuzzer = Rio_fuzz.Fuzzer
module Run = Rio_harness.Run
module Trace = Rio_obs.Trace
module Json = Rio_util.Json

let check = Alcotest.check

(* ---------------- the cell model ---------------- *)

let test_label_class () =
  check Alcotest.string "store label" "store-copy" (Cov.label_class "store-copy p0x4000+512");
  check Alcotest.string "meta label" "meta-torn" (Cov.label_class "meta-torn p0x2000/lo");
  check Alcotest.string "spaceless label" "vista-commit-start"
    (Cov.label_class "vista-commit-start")

let test_bucketing () =
  List.iter
    (fun (ordinal, bucket) ->
      check Alcotest.int (Printf.sprintf "bucket of %d" ordinal) bucket
        (Cov.bucket_of_ordinal ordinal))
    [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (255, 8); (256, 9); (100000, 9) ];
  check Alcotest.string "first bucket" "0" (Cov.bucket_name 0);
  check Alcotest.string "last bucket open" "256+" (Cov.bucket_name (Cov.buckets - 1))

let test_record_and_merge () =
  let a = Cov.create () and b = Cov.create () in
  Cov.note_schedule a ~labels:[ "store-copy p1"; "store-copy p2"; "meta-torn p3/lo" ];
  Cov.record a ~cls:"store-copy" ~op:"creat" ~ordinal:0 Cov.Survived;
  Cov.note_schedule b ~labels:[ "store-copy p9" ];
  Cov.record b ~cls:"store-copy" ~op:"creat" ~ordinal:0 Cov.Violated;
  Cov.record b ~cls:"meta-torn" ~op:"rename" ~ordinal:300 Cov.Unreached;
  let m = Cov.merge_list [ a; b ] in
  check Alcotest.int "schedules" 2 (Cov.schedules m);
  check Alcotest.int "crash trials" 3 (Cov.crash_trials m);
  check Alcotest.int "violations" 1 (Cov.violations m);
  check Alcotest.int "unreached" 1 (Cov.unreached m);
  check Alcotest.int "boundaries" 4 (Cov.boundaries_enumerated m);
  check Alcotest.int "store-copy enumerated" 3 (Cov.enumerated_of_class m "store-copy");
  check Alcotest.int "cell sum" 2 (Cov.cell_by_op m ~cls:"store-copy" ~op:"creat");
  check Alcotest.int "bucketed cell" 1
    (Cov.cell_count m ~cls:"meta-torn" ~op:"rename" ~bucket:(Cov.bucket_of_ordinal 300));
  check (Alcotest.list Alcotest.string) "no unhit (both classes crashed)" []
    (Cov.unhit_classes m);
  (* An enumerated-only class is the definition of unhit. *)
  Cov.note_schedule m ~labels:[ "disk-complete s42" ];
  check (Alcotest.list Alcotest.string) "unhit" [ "disk-complete" ] (Cov.unhit_classes m)

let test_merge_is_order_sum () =
  (* Merge is pure sums, so left-to-right equals any grouping. *)
  let mk n =
    let c = Cov.create () in
    Cov.note_schedule c ~labels:[ Printf.sprintf "store-copy p%d" n ];
    Cov.record c ~cls:"store-copy" ~op:"creat" ~ordinal:n Cov.Survived;
    c
  in
  let parts = List.init 5 mk in
  let flat = Cov.merge_list parts in
  let nested = Cov.merge_list [ Cov.merge_list (List.filteri (fun i _ -> i < 2) parts);
                                Cov.merge_list (List.filteri (fun i _ -> i >= 2) parts) ] in
  check Alcotest.string "same JSON" (Json.to_string (Cov.to_json flat))
    (Json.to_string (Cov.to_json nested))

(* ---------------- campaign determinism ---------------- *)

let cov_exn = function
  | Some c -> c
  | None -> Alcotest.fail "coverage missing despite config.coverage"

let render_both cov = (Heatmap.render cov, Json.to_string (Cov.to_json cov))

let test_explorer_determinism () =
  let run domains =
    let r =
      Fuzzer.explore ~spec:Explorer.rio_prot
        { Run.default with Run.seed = 7; domains; coverage = true }
    in
    render_both (cov_exn r.Explorer.coverage)
  in
  let text1, json1 = run 1 and text4, json4 = run 4 in
  check Alcotest.string "heatmap identical at -j1/-j4" text1 text4;
  check Alcotest.string "cov JSON identical at -j1/-j4" json1 json4

let test_fuzzer_determinism () =
  let run domains =
    let r =
      Fuzzer.run
        { Run.default with Run.seed = 3; trials = 40; domains; coverage = true }
    in
    render_both (cov_exn r.Fuzzer.coverage)
  in
  let text1, json1 = run 1 and text4, json4 = run 4 in
  check Alcotest.string "heatmap identical at -j1/-j4" text1 text4;
  check Alcotest.string "cov JSON identical at -j1/-j4" json1 json4

let test_fuzzer_feedback_full_coverage () =
  let r =
    Fuzzer.run { Run.default with Run.seed = 1; trials = 40; domains = 2; coverage = true }
  in
  let cov = cov_exn r.Fuzzer.coverage in
  check (Alcotest.list Alcotest.string) "every enumerated class crashed into" []
    (Cov.unhit_classes cov);
  check Alcotest.bool "schedules counted" true (Cov.schedules cov = 40)

let test_report_json_parses_back () =
  let r =
    Fuzzer.run { Run.default with Run.seed = 5; trials = 6; domains = 2; coverage = true }
  in
  let s = Json.to_string (Fuzzer.report_json r) in
  (match Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fuzz report JSON does not parse back: %s" e);
  let e = Fuzzer.explore { Run.default with Run.seed = 5; domains = 2; coverage = true } in
  match Json.parse (Json.to_string (Explorer.report_json e)) with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "check report JSON does not parse back: %s" err

(* ---------------- observability knobs ---------------- *)

let test_obs_clamping () =
  let cfg = { Run.default with Run.obs_capacity = Some (Trace.max_capacity * 2) } in
  check Alcotest.int "capacity clamped" Trace.max_capacity (Run.obs_capacity cfg);
  check Alcotest.bool "clamp reported" true (Run.obs_warnings cfg <> []);
  let cfg = { Run.default with Run.obs_capacity = Some (-5) } in
  check Alcotest.int "negative capacity clamps to 0" 0 (Run.obs_capacity cfg);
  check Alcotest.bool "defaults are clean" true (Run.obs_warnings Run.default = [])

let () =
  Alcotest.run "cov"
    [
      ( "cells",
        [
          Alcotest.test_case "label classing" `Quick test_label_class;
          Alcotest.test_case "ordinal bucketing" `Quick test_bucketing;
          Alcotest.test_case "record and merge" `Quick test_record_and_merge;
          Alcotest.test_case "merge is grouping-independent" `Quick test_merge_is_order_sum;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "explorer coverage byte-identical at -j" `Slow
            test_explorer_determinism;
          Alcotest.test_case "fuzzer coverage byte-identical at -j" `Slow
            test_fuzzer_determinism;
          Alcotest.test_case "feedback reaches full class coverage" `Slow
            test_fuzzer_feedback_full_coverage;
          Alcotest.test_case "report JSON parses back" `Slow test_report_json_parses_back;
        ] );
      ( "obs knobs",
        [
          Alcotest.test_case "capacity clamps with warnings" `Quick test_obs_clamping;
        ] );
    ]
