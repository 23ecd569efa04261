(* Tests for Rio_check: the exhaustive crash-schedule explorer. The key
   properties are (a) rio-prot survives every enumerated crash point, (b)
   the report is byte-identical at any domain count, and (c) the checker
   catches the known-unsafe ablations — a checker that cannot catch a
   planted hole proves nothing by finding no violations. *)

module Boundary = Rio_check.Boundary
module Scenario = Rio_check.Scenario
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run

let check = Alcotest.check

let cfg ~domains = { Run.default with Run.seed = 7; domains }

(* ---------------- boundary enumeration ---------------- *)

let test_enumeration_classes () =
  let scenarios = Scenario.all in
  check Alcotest.int "five scenarios" 5 (List.length scenarios);
  let r = Explorer.run ~spec:Explorer.rio_prot (cfg ~domains:1) in
  List.iter
    (fun (s : Explorer.scenario_result) ->
      if s.Explorer.slug = "sync" then
        (* Rio's sync returns immediately (§2.3): nothing to crash inside. *)
        check Alcotest.int "sync is boundary-free under rio" 0 s.Explorer.crash_points
      else if
        (* The same-directory rename collapses to one atomic metadata update,
           so its schedule is short — but never trivial. *)
        s.Explorer.crash_points < 5
      then
        Alcotest.failf "scenario %s enumerated only %d crash points" s.Explorer.slug
          s.Explorer.crash_points)
    r.Explorer.scenarios;
  (* Under idle write-back the same barrier routes through the write-behind
     pipeline, so the sync scenario contributes wb-queue/wb-flush/wb-commit
     crash points of its own — and survives all of them. *)
  let r = Explorer.run ~spec:Explorer.rio_idle ~only:[ "sync" ] (cfg ~domains:1) in
  (match r.Explorer.scenarios with
  | [ s ] ->
    if s.Explorer.crash_points < 3 then
      Alcotest.failf "sync under rio-idle enumerated only %d crash points"
        s.Explorer.crash_points
  | _ -> Alcotest.fail "expected exactly the sync scenario");
  check Alcotest.int "sync survives under rio-idle" 0 (Explorer.violation_count r)

let test_rio_prot_safe () =
  let r = Explorer.run ~spec:Explorer.rio_prot (cfg ~domains:1) in
  (match
     List.concat_map
       (fun (s : Explorer.scenario_result) -> s.Explorer.violations)
       r.Explorer.scenarios
   with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "rio-prot violated at crash point %d (%s): %s" v.Explorer.ordinal
      v.Explorer.label
      (String.concat "; " v.Explorer.problems));
  check Alcotest.int "zero violations" 0 (Explorer.violation_count r)

let test_parallel_determinism () =
  (* One scenario is enough to prove the merge is in boundary order. *)
  let only = Some [ "creat" ] in
  let r1 = Explorer.run ~spec:Explorer.rio_prot ?only (cfg ~domains:1) in
  let r2 = Explorer.run ~spec:Explorer.rio_prot ?only (cfg ~domains:2) in
  check Alcotest.string "byte-identical render at -j 1 and -j 2" (Explorer.render r1)
    (Explorer.render r2)

let test_shadow_off_flagged () =
  let r = Explorer.run ~spec:Explorer.shadow_off (cfg ~domains:1) in
  if Explorer.violation_count r = 0 then
    Alcotest.fail "shadow-off produced no violations: the checker cannot catch a planted hole";
  (* Violations must come with a forensics counterexample narrative. *)
  let v =
    List.concat_map
      (fun (s : Explorer.scenario_result) -> s.Explorer.violations)
      r.Explorer.scenarios
    |> List.hd
  in
  if v.Explorer.narrative = [] then Alcotest.fail "violation lacks a counterexample narrative"

let test_registry_off_flagged () =
  let r =
    Explorer.run ~spec:Explorer.registry_off ~only:[ "creat" ] (cfg ~domains:1)
  in
  if Explorer.violation_count r = 0 then
    Alcotest.fail "registry-off produced no violations"

let test_matrix_verdicts () =
  let entries =
    Explorer.run_matrix ~only:[ "rename" ] (cfg ~domains:1)
  in
  check Alcotest.int "five configurations" 5 (List.length entries);
  List.iter
    (fun (e : Explorer.matrix_entry) ->
      let spec = e.Explorer.entry_report.Explorer.spec in
      if not e.Explorer.ok then
        Alcotest.failf "matrix verdict mismatch for %s" spec.Explorer.label)
    entries;
  Alcotest.(check bool) "matrix_ok" true (Explorer.matrix_ok entries)

let test_unknown_scenario_rejected () =
  match Explorer.run ~only:[ "no-such" ] (cfg ~domains:1) with
  | (_ : Explorer.report) -> Alcotest.fail "unknown slug accepted"
  | exception Invalid_argument _ -> ()

(* The scenario checks audit warm recovery: a cold spec must be refused,
   not silently audited warm. *)
let test_cold_spec_rejected () =
  match Explorer.run ~spec:Explorer.wb_order ~only:[ "creat" ] (cfg ~domains:1) with
  | (_ : Explorer.report) -> Alcotest.fail "cold spec audited warm"
  | exception Invalid_argument msg ->
    check Alcotest.bool "the message names the spec" true
      (String.starts_with ~prefix:"Explorer.run: wb-order " msg)

let () =
  Alcotest.run "check"
    [
      ( "explorer",
        [
          Alcotest.test_case "enumeration covers each scenario" `Slow test_enumeration_classes;
          Alcotest.test_case "rio-prot survives every crash point" `Slow test_rio_prot_safe;
          Alcotest.test_case "parallel run is byte-identical" `Slow test_parallel_determinism;
          Alcotest.test_case "shadow-off is flagged with a narrative" `Slow test_shadow_off_flagged;
          Alcotest.test_case "registry-off is flagged" `Slow test_registry_off_flagged;
          Alcotest.test_case "matrix verdicts all hold" `Slow test_matrix_verdicts;
          Alcotest.test_case "unknown scenario slug rejected" `Quick test_unknown_scenario_rejected;
          Alcotest.test_case "cold spec rejected" `Quick test_cold_spec_rejected;
        ] );
    ]
