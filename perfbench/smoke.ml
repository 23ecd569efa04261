(* The benchmark's smoke check, run by `dune runtest`: every workload of
   BENCHMARK.json, untraced and traced, at --smoke size. Each run must exit
   0 (a traced run exits 1 when its composition does not reproduce the
   untraced results) and end with a result line that parses, reports no
   failed op, and carries exactly the metrics BENCHMARK.json lists, with
   their units; end-to-end values must be positive. A bad flag must fail
   without a result line. A table2 cell that raises must leave out the
   simulated-time results that need it, not break the result line.

     smoke.exe MAIN_EXE BENCHMARK_JSON *)

module Json = Rio_util.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      exit 1)
    fmt

let parse what text =
  match Json.parse text with Ok j -> j | Error e -> fail "%s does not parse: %s" what e

let field what key j =
  match Json.member key j with Some v -> v | None -> fail "%s has no %S" what key

let str what = function Json.Str s -> s | _ -> fail "%s is not a string" what

let number what = function
  | Json.Int i -> float_of_int i
  | Json.Float f when Float.is_finite f -> f
  | _ -> fail "%s is not a finite number" what

(* Standard output and exit status of one benchmark run; [quiet] drops
   its standard error. *)
let run ?(quiet = false) exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 else Unix.stderr in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w err in
  Unix.close out_w;
  if quiet then Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (snd (Unix.waitpid [] pid), out)

let last_line out =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let check_result ~what ~positive expected line =
  let r = parse what line in
  if field what "correct" r <> Json.Bool true then fail "%s: not correct" what;
  if number what (field what "failed" r) <> 0. then fail "%s: failed ops" what;
  if number what (field what "attempted" r) < 1. then fail "%s: nothing attempted" what;
  let metrics =
    match field what "metrics" r with Json.Obj kvs -> kvs | _ -> fail "%s: metrics" what
  in
  if List.sort compare (List.map fst metrics) <> List.sort compare (List.map fst expected) then
    fail "%s: metric names differ from BENCHMARK.json" what;
  List.iter
    (fun (name, m) ->
      let what = what ^ " " ^ name in
      if str what (field what "unit" m) <> List.assoc name expected then fail "%s: unit" what;
      let v = number what (field what "value" m) in
      if positive && v <= 0. then fail "%s: not positive" what)
    metrics

let check_raised_cell () =
  let results = List.map (fun cell -> (Table2_load.keyed cell, Ok (1., 0.))) Table2_load.cells in
  let names results = List.map (fun m -> m.Meter.name) (Table2_load.sim_metrics results) in
  if List.length (names results) <> 5 then fail "table2: a full pass lacks a simulated-time result";
  let raised =
    List.map
      (fun (k, r) -> if k = ("rio-prot", `Cp_rm) then (k, Error "raised") else (k, r))
      results
  in
  if names raised <> [ "sim_s.ufs"; "sim_s.ufs-delayed"; "sim_s.wt-write" ] then
    fail "table2: a raised cell did not leave out exactly the results that need it";
  ignore
    (Meter.result_line
       {
         Meter.attempted = 1;
         failed = 1;
         correct = false;
         metrics = Table2_load.sim_metrics raised;
         report = [];
       })

let () =
  if Array.length Sys.argv <> 3 then fail "usage: smoke.exe MAIN_EXE BENCHMARK_JSON";
  check_raised_cell ();
  let exe = Sys.argv.(1) in
  let spec = parse "BENCHMARK.json" (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) in
  let entries key = Json.to_list (field "BENCHMARK.json" key spec) in
  let metrics key =
    List.map
      (fun m -> (str key (field key "name" m), str key (field key "unit" m)))
      (entries key)
  in
  List.iter
    (fun w ->
      let w = str "workload" (field "workload" "name" w) in
      List.iter
        (fun (trace, key) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          match
            run exe [ "--workload"; w; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace; "--smoke" ]
          with
          | Unix.WEXITED 0, out ->
            check_result ~what ~positive:(trace = "0") (metrics key) (last_line out)
          | _ -> fail "%s did not exit 0" what)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (entries "workloads");
  match run ~quiet:true exe [ "--workload"; "fuzz"; "--bogus" ] with
  | Unix.WEXITED 0, _ -> fail "a bad flag exited 0"
  | _, out -> if String.trim out <> "" then fail "a bad flag printed a result"
