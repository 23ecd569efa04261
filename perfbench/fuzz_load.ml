(* The fuzz and fuzz-tasks workloads: crash-schedule fuzzing of rio-prot,
   one trial per op. The reverse of the campaign: template restore, file
   system calls, the boundary probe, warm reboot and the audit do the
   work, and almost no interpreted kernel code runs. fuzz-tasks runs the
   same trial cycle as four scheduler fibers under the ownership lock.

   [Fuzzer.run] takes a trial count, not a deadline, so the timed loop
   repeats one fixed chunk of trials at the run's seed: the template built
   during set-up serves every chunk, and every chunk must report the same
   boundaries and violations. *)

module Fuzzer = Rio_fuzz.Fuzzer
module Program = Rio_fuzz.Program
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run
module Gen = Rio_workload.Script.Gen
module Cov = Rio_cov.Cov
module Prng = Rio_util.Prng
module Fs = Rio_fs.Fs

type mode = Solo | Tasks

let spec = Explorer.rio_prot
let max_ops = Fuzzer.default_max_ops
let tasks = 4

let chunk_size mode ~smoke =
  match (mode, smoke) with
  | Solo, false -> 3000
  | Solo, true -> 20
  | Tasks, false -> 1200
  | Tasks, true -> 8

let name = function Solo -> "fuzz" | Tasks -> "fuzz-tasks"

(* One [Fuzzer.run]/[run_tasks] of [trials] trials: its boundary and
   violation totals. With [times], each trial's host time is taken from
   the per-trial progress callback; a probe the recorder runs inside the
   callback is not trial time. *)
let chunk ?times mode ~seed ~trials =
  let last = ref (Meter.now ()) in
  let progress =
    match times with
    | None -> ignore
    | Some times ->
      fun _ ->
        Meter.record times (Meter.now () -. !last);
        last := Meter.now ()
  in
  let cfg = { Run.default with Run.seed; trials; domains = 1; progress } in
  match mode with
  | Solo ->
    let r = Fuzzer.run ~spec ~max_ops ~shrink_limit:0 cfg in
    (r.Fuzzer.boundaries, r.Fuzzer.violations)
  | Tasks ->
    let r = Fuzzer.run_tasks ~spec ~locking:true ~max_ops ~shrink_limit:0 ~tasks cfg in
    (r.Fuzzer.tr_boundaries, r.Fuzzer.tr_violations)

(* The untimed warm-up op: a one-trial run at the run's seed, which builds
   the world template every timed chunk then reuses. *)
let warmup mode ~seed = ignore (chunk mode ~seed ~trials:1)

let run mode ~setup ~seed ~seconds ~smoke =
  let trials = chunk_size mode ~smoke in
  let first = ref None and attempted = ref 0 and failed = ref 0 in
  let rounds =
    Meter.closed_loop ~seconds (fun () ->
        let times = Meter.recorder () in
        let ((_, violations) as totals) = chunk ~times mode ~seed ~trials in
        attempted := !attempted + trials;
        failed := !failed + violations;
        (match !first with
        | None -> first := Some totals
        | Some f ->
          if f <> totals then begin
            failed := !failed + trials;
            Printf.eprintf "%s: a repeated chunk reported different totals\n%!" (name mode)
          end);
        Meter.finish times)
  in
  Meter.timed ~setup ~rounds ~attempted:!attempted ~failed:!failed []

(* ---------------- the traced composition ---------------- *)

(* One fuzz trial, composed from the public calls [Fuzzer.run] makes in
   the same order and with the same PRNG draws: generate, count the
   boundaries with a disarmed pass, pick one stratified by boundary
   class, crash there and audit. *)

type trial = { boundaries : int; violated : bool; reached : bool }

let pick_boundary prng labels =
  let classes = Hashtbl.create 16 and order = ref [] in
  List.iteri
    (fun i l ->
      let cls = Cov.label_class l in
      match Hashtbl.find_opt classes cls with
      | Some ords -> Hashtbl.replace classes cls (i :: ords)
      | None ->
        order := cls :: !order;
        Hashtbl.replace classes cls [ i ])
    labels;
  let order = Array.of_list (List.rev !order) in
  let cls = order.(Prng.int prng (Array.length order)) in
  let ords = Array.of_list (List.rev (Hashtbl.find classes cls)) in
  ords.(Prng.int prng (Array.length ords))

let solo_trial sp ~seed t =
  let span name fn = Spans.span sp name fn in
  let prng = Prng.create ~seed:((seed * 0x1000003) + t) in
  let ops =
    span "gen.generate" (fun () ->
        let nops = 1 + Prng.int prng max_ops in
        let gspec =
          if spec.Explorer.policy = Fs.Rio_idle then { Program.gen_spec with Gen.sync = true }
          else Program.gen_spec
        in
        Gen.generate ~prng gspec ~ops:nops)
  in
  let counting =
    span "fuzz.count_pass" (fun () -> Fuzzer.run_attempt ~spec ~seed ~ops ~trip:(-1) ())
  in
  if counting.Fuzzer.boundaries = 0 then { boundaries = 0; violated = false; reached = false }
  else begin
    let r = span "gen.pick" (fun () -> pick_boundary prng counting.Fuzzer.labels) in
    let a = span "fuzz.crash_pass" (fun () -> Fuzzer.run_attempt ~spec ~seed ~ops ~trip:r ()) in
    let reached = a.Fuzzer.crashed_during <> None in
    {
      boundaries = counting.Fuzzer.boundaries;
      violated = (not reached) || a.Fuzzer.problems <> [];
      reached;
    }
  end

let tasks_trial sp ~seed t =
  let span name fn = Spans.span sp name fn in
  let prng = Prng.create ~seed:((seed * 0x1000003) + t) in
  let progs, sched_seed =
    span "gen.generate" (fun () ->
        let progs =
          Array.of_list
            (Gen.generate_tasks ~prng ~spec_of:Program.task_gen_spec ~ops_per_task:max_ops tasks)
        in
        (progs, Prng.int prng 0x40000000))
  in
  let attempt trip () =
    Fuzzer.run_attempt_tasks ~spec ~locking:true ~seed ~sched_seed ~progs ~trip ()
  in
  let counting = span "task.count_pass" (attempt (-1)) in
  let boundaries = counting.Fuzzer.t_boundaries in
  if counting.Fuzzer.t_problems <> [] then { boundaries; violated = true; reached = false }
  else if boundaries = 0 then { boundaries; violated = false; reached = false }
  else begin
    let r = span "gen.pick" (fun () -> pick_boundary prng counting.Fuzzer.t_labels) in
    let a = span "task.crash_pass" (attempt r) in
    let reached = a.Fuzzer.t_crasher <> None || a.Fuzzer.t_raised <> None in
    { boundaries; violated = (not reached) || a.Fuzzer.t_problems <> []; reached }
  end

let traced_chunk mode sp ~seed ~trials =
  let b = ref 0 and v = ref 0 and reached = ref 0 in
  for t = 0 to trials - 1 do
    let r =
      Spans.trial sp "fuzz.trial" (fun () ->
          match mode with
          | Solo -> solo_trial sp ~seed t
          | Tasks -> tasks_trial sp ~seed t)
    in
    b := !b + r.boundaries;
    if r.violated then incr v;
    if r.reached then incr reached
  done;
  ((!b, !v), !reached)

let trace mode ~seed ~seconds ~smoke sp =
  let trials = chunk_size mode ~smoke in
  let pairing = Meter.pairing () in
  let attempted = ref 0 and failed = ref 0 and reached = ref 0 and boundaries = ref 0 in
  ignore
    (Meter.closed_loop ~seconds (fun () ->
         let totals, (traced, r) =
           Meter.pair pairing
             ~untraced:(fun () -> chunk mode ~seed ~trials)
             ~traced:(fun () -> traced_chunk mode sp ~seed ~trials)
         in
         attempted := !attempted + trials;
         failed := !failed + snd totals;
         reached := !reached + r;
         boundaries := !boundaries + fst traced;
         if totals <> traced then begin
           pairing.Meter.mismatches <- pairing.Meter.mismatches + 1;
           Printf.eprintf "%s: composed trials do not reproduce the fuzzer's totals\n%!" (name mode)
         end;
         [||])
      : float array list);
  let n = float_of_int !attempted in
  let p50 span = 1e3 *. Spans.p50 sp span in
  let passes =
    match mode with
    | Solo ->
      [
        Meter.metric "fuzz.count_pass_ms.p50" "ms" (p50 "fuzz.count_pass");
        Meter.metric "fuzz.crash_pass_ms.p50" "ms" (p50 "fuzz.crash_pass");
      ]
    | Tasks ->
      [
        Meter.metric "task.count_pass_ms.p50" "ms" (p50 "task.count_pass");
        Meter.metric "task.crash_pass_ms.p50" "ms" (p50 "task.crash_pass");
      ]
  in
  ( {
      Meter.attempted = !attempted;
      failed = !failed;
      correct = !failed = 0;
      metrics =
        (Meter.metric "op_ms.p50" "ms" (p50 "fuzz.trial") :: passes)
        @ [
            Meter.metric "check.boundaries_per_trial" "count" (float_of_int !boundaries /. n);
            Meter.metric "fuzz.reached_ratio" "ratio" (float_of_int !reached /. n);
          ]
        @ Meter.gc_metrics pairing ~ops:n;
      report = [];
    },
    pairing )
