(* Tests for the exhaustive crash-schedule explorer ([Fuzzer.explore]).
   The key properties are (a) rio-prot survives every enumerated crash
   point, (b) the report is byte-identical at any domain count, (c) the
   checker catches the known-unsafe ablations — a checker that cannot
   catch a planted hole proves nothing by finding no violations — and
   (d) a shrunk fuzz counterexample explores as a scenario unchanged. *)

module Explorer = Rio_check.Explorer
module Fuzzer = Rio_fuzz.Fuzzer
module Run = Rio_harness.Run
module Gen = Rio_workload.Script.Gen

let check = Alcotest.check

let cfg ~domains = { Run.default with Run.seed = 7; domains }

(* ---------------- boundary enumeration ---------------- *)

(* The boundary window of a one-program scenario's last op: the op under
   test, whatever the ops before it plant. *)
let last_op_window ~spec slug =
  match (Fuzzer.scenario slug).Fuzzer.body with
  | Fuzzer.One ops ->
    let a = Fuzzer.run_attempt ~spec ~seed:7 ~ops ~trip:(-1) () in
    let n = List.length ops in
    a.Fuzzer.op_starts.(n) - a.Fuzzer.op_starts.(n - 1)
  | Fuzzer.Tasks _ -> Alcotest.failf "%s is not a one-program scenario" slug

let test_enumeration_classes () =
  check Alcotest.int "six scenarios" 6 (List.length Fuzzer.scenarios);
  let r = Fuzzer.explore ~spec:Explorer.rio_prot (cfg ~domains:1) in
  check Alcotest.int "five one-program scenarios explored" 5 (List.length r.Explorer.scenarios);
  List.iter
    (fun (s : Explorer.scenario_result) ->
      let window = last_op_window ~spec:Explorer.rio_prot s.Explorer.slug in
      if s.Explorer.slug = "sync" then
        (* Rio's sync returns immediately (§2.3): nothing to crash inside. *)
        check Alcotest.int "sync is boundary-free under rio" 0 window
      else if
        (* The same-directory rename collapses to one atomic metadata update,
           so its window is short — but never trivial. *)
        window < 5
      then Alcotest.failf "scenario %s's last op enumerated only %d crash points" s.Explorer.slug
          window)
    r.Explorer.scenarios;
  (* Under idle write-back the same barrier routes through the write-behind
     pipeline, so the sync op contributes wb-queue/wb-flush/wb-commit crash
     points of its own — and survives all of them. *)
  let window = last_op_window ~spec:Explorer.rio_idle "sync" in
  if window < 3 then Alcotest.failf "sync under rio-idle enumerated only %d crash points" window;
  let r =
    Fuzzer.explore ~spec:Explorer.rio_idle ~scenarios:[ Fuzzer.scenario "sync" ] (cfg ~domains:1)
  in
  check Alcotest.int "sync survives under rio-idle" 0 (Explorer.violation_count r)

let test_rio_prot_safe () =
  let r = Fuzzer.explore ~spec:Explorer.rio_prot (cfg ~domains:1) in
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
  let scenarios = [ Fuzzer.scenario "creat" ] in
  let r1 = Fuzzer.explore ~spec:Explorer.rio_prot ~scenarios (cfg ~domains:1) in
  let r2 = Fuzzer.explore ~spec:Explorer.rio_prot ~scenarios (cfg ~domains:2) in
  check Alcotest.string "byte-identical render at -j 1 and -j 2" (Explorer.render r1)
    (Explorer.render r2)

let test_shadow_off_flagged () =
  let r = Fuzzer.explore ~spec:Explorer.shadow_off (cfg ~domains:1) in
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
    Fuzzer.explore ~spec:Explorer.registry_off ~scenarios:[ Fuzzer.scenario "creat" ]
      (cfg ~domains:1)
  in
  if Explorer.violation_count r = 0 then
    Alcotest.fail "registry-off produced no violations"

let test_matrix_verdicts () =
  let entries =
    Fuzzer.explore_matrix ~scenarios:[ Fuzzer.scenario "rename" ] (cfg ~domains:1)
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
  match Fuzzer.scenario "no-such" with
  | (_ : Fuzzer.scenario) -> Alcotest.fail "unknown slug accepted"
  | exception Invalid_argument _ -> ()

(* The scenario checks audit warm recovery: a cold spec must be refused,
   not silently audited warm. *)
let test_cold_spec_rejected () =
  match
    Fuzzer.explore ~spec:Explorer.wb_order ~scenarios:[ Fuzzer.scenario "creat" ]
      (cfg ~domains:1)
  with
  | (_ : Explorer.report) -> Alcotest.fail "cold spec audited warm"
  | exception Invalid_argument msg ->
    check Alcotest.bool "the message names the spec" true
      (String.starts_with ~prefix:"Fuzzer.explore: wb-order " msg)

(* A negative interleaving count is an error, not "no interleavings"; and
   a selection that leaves nothing to explore is refused, not passed. *)
let test_bad_interleave_rejected () =
  let rejects name f =
    match f () with
    | (_ : Explorer.report) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "interleave -1" (fun () ->
      Fuzzer.explore ~scenarios:[ Fuzzer.scenario "creat" ] ~interleave:(-1) (cfg ~domains:1));
  rejects "two-task without interleavings" (fun () ->
      Fuzzer.explore ~scenarios:[ Fuzzer.scenario "two-task" ] (cfg ~domains:1))

(* A multi-task count pass audits its final state; the explorer must
   report what that audit finds, not only what its trips find. A creat
   over the directory the program just made raises in the count pass,
   with no crash at all. *)
let test_count_pass_problem_reported () =
  let prog = [ Gen.Mkdir "/fuzz/t0/d"; Gen.Creat { path = "/fuzz/t0/d"; seed = 1; len = 10 } ] in
  let scenarios = [ { Fuzzer.slug = "creat-on-dir"; body = Fuzzer.Tasks [| prog |] } ] in
  let r = Fuzzer.explore ~scenarios ~interleave:1 (cfg ~domains:1) in
  let no_crash =
    List.concat_map
      (fun (s : Explorer.scenario_result) ->
        List.filter (fun (v : Explorer.violation) -> v.Explorer.ordinal = -1) s.Explorer.violations)
      r.Explorer.scenarios
  in
  match no_crash with
  | [ v ] ->
    check Alcotest.bool "the count pass's problem is reported" true (v.Explorer.problems <> [])
  | vs -> Alcotest.failf "expected one no-crash violation, got %d" (List.length vs)

(* ---------------- fuzz counterexamples as scenarios ---------------- *)

(* The payoff of one crash contract: the fuzzer's shrunk program is a
   scenario as it stands, explored at every crash point with no new
   checking code. Under the ablation that produced it, the exhaustive
   run must re-find the fuzzer's own crash point; under rio-prot the
   same program is safe everywhere. *)
let test_counterexample_as_scenario () =
  let cfg = { Run.default with Run.seed = 1; trials = 40; domains = 2 } in
  let fz = Fuzzer.run ~spec:Explorer.shadow_off cfg in
  let c =
    match fz.Fuzzer.counterexamples with
    | c :: _ -> c
    | [] -> Alcotest.fail "shadow-off fuzzed clean: no counterexample to explore"
  in
  let scenarios = [ { Fuzzer.slug = "counterexample"; body = Fuzzer.One c.Fuzzer.ops } ] in
  let ordinals spec =
    let r = Fuzzer.explore ~spec ~scenarios cfg in
    List.concat_map
      (fun (s : Explorer.scenario_result) ->
        List.map (fun (v : Explorer.violation) -> v.Explorer.ordinal) s.Explorer.violations)
      r.Explorer.scenarios
  in
  let caught = ordinals Explorer.shadow_off in
  if not (List.mem c.Fuzzer.ordinal caught) then
    Alcotest.failf "shadow-off explore missed the counterexample's ordinal %d (violations at: %s)"
      c.Fuzzer.ordinal
      (String.concat ", " (List.map string_of_int caught));
  check (Alcotest.list Alcotest.int) "rio-prot survives the same program" []
    (ordinals Explorer.rio_prot)

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
          Alcotest.test_case "bad interleave rejected" `Quick test_bad_interleave_rejected;
          Alcotest.test_case "count-pass problem reported" `Quick
            test_count_pass_problem_reported;
          Alcotest.test_case "fuzz counterexample explores as a scenario" `Slow
            test_counterexample_as_scenario;
        ] );
    ]
