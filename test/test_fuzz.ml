(* Tests for Rio_fuzz: the randomized crash-schedule fuzzer. The key
   properties are (a) generation and the whole fuzz loop are seed-
   deterministic at any domain count, (b) rio-prot fuzzes clean at a fixed
   seed, and (c) the fuzzer catches the planted unsafe ablations AND
   shrinks them to small repros — a fuzzer whose shrinker cannot reach a
   readable counterexample proves little by flagging one. *)

module Gen = Rio_workload.Script.Gen
module Program = Rio_fuzz.Program
module Fuzzer = Rio_fuzz.Fuzzer
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run
module Prng = Rio_util.Prng
module World = Rio_world.World
module Fs = Rio_fs.Fs
module Pattern = Rio_util.Pattern

let check = Alcotest.check

let cfg ?(seed = 1) ?(trials = 6) ~domains () =
  { Run.default with Run.seed; trials; domains }

(* ---------------- the generator ---------------- *)

let test_gen_deterministic () =
  let gen () =
    Gen.generate ~prng:(Prng.create ~seed:42) (Gen.default_spec ~root:"/fuzz") ~ops:20
  in
  let a = gen () and b = gen () in
  check Alcotest.int "same length" (List.length a) (List.length b);
  List.iter2
    (fun x y -> check Alcotest.string "same op" (Gen.describe x) (Gen.describe y))
    a b

let test_gen_programs_are_valid () =
  (* Valid-by-construction: the model (which raises [Not_found] on any
     dangling reference) must fold every generated program cleanly. *)
  for seed = 1 to 50 do
    let ops =
      Gen.generate ~prng:(Prng.create ~seed) (Gen.default_spec ~root:"/fuzz") ~ops:30
    in
    let m = Gen.Model.after ~root:"/fuzz" ops in
    ignore (Gen.Model.sorted_files m)
  done

let test_gen_covers_op_kinds () =
  let ops =
    Gen.generate ~prng:(Prng.create ~seed:3) (Gen.default_spec ~root:"/fuzz") ~ops:200
  in
  let seen tag =
    List.exists
      (fun (op : Gen.op) ->
        match (op, tag) with
        | Gen.Creat _, `Creat
        | Gen.Append _, `Append
        | Gen.Overwrite _, `Overwrite
        | Gen.Mkdir _, `Mkdir
        | Gen.Unlink _, `Unlink
        | Gen.Rename _, `Rename
        | Gen.Vista_txn _, `Vista ->
          true
        | _ -> false)
      ops
  in
  List.iter
    (fun tag -> check Alcotest.bool "op kind generated" true (seen tag))
    [ `Creat; `Append; `Overwrite; `Mkdir; `Unlink; `Rename; `Vista ]

(* ---------------- single attempts ---------------- *)

let test_attempt_op_starts () =
  let ops =
    Gen.generate ~prng:(Prng.create ~seed:11) Program.gen_spec ~ops:4
  in
  let a = Fuzzer.run_attempt ~spec:Explorer.rio_prot ~seed:1 ~ops ~trip:(-1) () in
  check Alcotest.int "op_starts spans all ops" (List.length ops + 1)
    (Array.length a.Fuzzer.op_starts);
  check Alcotest.bool "boundaries enumerated" true (a.Fuzzer.boundaries > 0);
  check Alcotest.int "labels cover the schedule" a.Fuzzer.boundaries
    (List.length a.Fuzzer.labels);
  check Alcotest.int "first op starts at 0" 0 a.Fuzzer.op_starts.(0);
  check Alcotest.int "last entry closes the schedule" a.Fuzzer.boundaries
    a.Fuzzer.op_starts.(List.length ops);
  Array.iteri
    (fun i s ->
      if i > 0 && s < a.Fuzzer.op_starts.(i - 1) then
        Alcotest.failf "op_starts not monotone at %d" i)
    a.Fuzzer.op_starts

(* ---------------- the post-crash contract ---------------- *)

(* A rename whose source and destination share a directory is one
   shadow-wrapped block rewrite, so recovery owes exactly one name; a
   cross-directory rename inserts before it removes, so both names may
   survive a crash inside it. The audit must tell the two apart. *)
let test_rename_owes_one_name () =
  let creat = Gen.Creat { path = "/fuzz/a"; seed = 0x5c5c; len = 800 } in
  let both_names ~dst ops =
    let w = World.create ~seed:3 () in
    Fun.protect
      ~finally:(fun () -> World.dispose w)
      (fun () ->
        let fs = World.fs w in
        ignore (Program.setup fs : Program.world);
        if Filename.dirname dst <> "/fuzz" then Fs.mkdir fs (Filename.dirname dst);
        List.iter
          (fun path -> Fs.write_file fs path (Pattern.fill ~seed:0x5c5c ~len:800))
          [ "/fuzz/a"; dst ];
        Program.check fs ~ops ~in_flight:(List.length ops - 1))
  in
  let same = both_names ~dst:"/fuzz/b" [ creat; Gen.Rename { src = "/fuzz/a"; dst = "/fuzz/b" } ] in
  check Alcotest.bool "same directory: both names is a violation" true (same <> []);
  check (Alcotest.list Alcotest.string) "across directories: both names is allowed" []
    (both_names ~dst:"/fuzz/d/b"
       [ creat; Gen.Mkdir "/fuzz/d"; Gen.Rename { src = "/fuzz/a"; dst = "/fuzz/d/b" } ])

(* ---------------- the fuzz loop ---------------- *)

let test_rio_prot_fuzzes_clean () =
  let r = Fuzzer.run ~spec:Explorer.rio_prot (cfg ~trials:8 ~domains:2 ()) in
  (match r.Fuzzer.counterexamples with
  | [] -> ()
  | c :: _ ->
    Alcotest.failf "rio-prot violated at boundary %d (%s): %s" c.Fuzzer.ordinal
      c.Fuzzer.label
      (String.concat "; " c.Fuzzer.problems));
  check Alcotest.int "zero violations" 0 r.Fuzzer.violations

let test_parallel_determinism () =
  (* Seed 1, 6 trials of shadow-off: trial 5 violates and gets shrunk, so
     this exercises the whole pipeline including the shrinker and the
     forensics replay. *)
  let r1 = Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:1 ()) in
  let r4 = Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:4 ()) in
  check Alcotest.string "byte-identical render at -j 1 and -j 4" (Fuzzer.render r1)
    (Fuzzer.render r4)

let expect_shrunk_catch ~name r =
  if r.Fuzzer.violations = 0 then
    Alcotest.failf "%s produced no violations: the fuzzer cannot catch a planted hole" name;
  match r.Fuzzer.counterexamples with
  | [] -> Alcotest.failf "%s violations were not shrunk" name
  | c :: _ ->
    if List.length c.Fuzzer.ops > Fuzzer.max_repro_ops then
      Alcotest.failf "%s repro has %d ops (max %d)" name (List.length c.Fuzzer.ops)
        Fuzzer.max_repro_ops;
    check Alcotest.bool "shrunk repro keeps its problems" true (c.Fuzzer.problems <> []);
    check Alcotest.bool "shrunk repro shed ops" true
      (List.length c.Fuzzer.ops <= c.Fuzzer.original_ops);
    check Alcotest.bool "ordinal did not grow" true
      (c.Fuzzer.ordinal <= c.Fuzzer.original_ordinal);
    check Alcotest.bool "narrative present" true (c.Fuzzer.narrative <> [])

let test_shadow_off_caught_and_shrunk () =
  expect_shrunk_catch ~name:"shadow-off"
    (Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:2 ()))

let test_registry_off_caught_and_shrunk () =
  expect_shrunk_catch ~name:"registry-off"
    (Fuzzer.run ~spec:Explorer.registry_off (cfg ~trials:2 ~domains:2 ()))

let () =
  Alcotest.run "rio_fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "programs valid by construction" `Quick
            test_gen_programs_are_valid;
          Alcotest.test_case "covers all op kinds" `Quick test_gen_covers_op_kinds;
        ] );
      ( "attempt",
        [ Alcotest.test_case "op_starts attribution" `Quick test_attempt_op_starts ] );
      ( "program",
        [
          Alcotest.test_case "same-directory rename owes one name" `Quick
            test_rename_owes_one_name;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "rio-prot fuzzes clean" `Slow test_rio_prot_fuzzes_clean;
          Alcotest.test_case "parallel determinism (with shrink)" `Slow
            test_parallel_determinism;
          Alcotest.test_case "shadow-off caught and shrunk" `Slow
            test_shadow_off_caught_and_shrunk;
          Alcotest.test_case "registry-off caught and shrunk" `Slow
            test_registry_off_caught_and_shrunk;
        ] );
    ]
