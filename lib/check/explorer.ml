module Fs = Rio_fs.Fs
module Forensics = Rio_obs.Forensics
module Pool = Rio_parallel.Pool
module Run = Rio_harness.Run
module World = Rio_world.World
module Cov = Rio_cov.Cov
module Json = Rio_util.Json
module Sched = Rio_task.Sched
module Task = Rio_task.Task

type spec = Trial.spec = {
  label : string;
  protection : bool;
  shadow : bool;
  registry : bool;
  policy : Fs.policy;
  backend : Rio_disk.Backend.kind;
  wb_unordered : bool;
  cold : bool;
  expect_safe : bool;
}

let rio_prot =
  {
    label = "rio-prot";
    protection = true;
    shadow = true;
    registry = true;
    policy = Fs.Rio_policy;
    backend = Rio_disk.Backend.Scsi;
    wb_unordered = false;
    cold = false;
    expect_safe = true;
  }

let rio_noprot = { rio_prot with label = "rio-noprot"; protection = false }
let shadow_off = { rio_prot with label = "shadow-off"; shadow = false; expect_safe = false }

let registry_off =
  { rio_prot with label = "registry-off"; registry = false; expect_safe = false }

let rio_idle = { rio_prot with label = "rio-idle"; policy = Fs.Rio_idle }

let wb_cold = { rio_prot with label = "wb-cold"; policy = Fs.Rio_idle; cold = true }

let wb_order =
  {
    rio_prot with
    label = "wb-order";
    policy = Fs.Rio_idle;
    cold = true;
    wb_unordered = true;
    expect_safe = false;
  }

let matrix_specs = [ rio_prot; rio_noprot; shadow_off; registry_off; rio_idle ]
let fuzz_specs = matrix_specs @ [ wb_cold; wb_order ]

type violation = {
  ordinal : int;
  label : string;
  problems : string list;
  narrative : string list;
}

type scenario_result = {
  slug : string;
  name : string;
  crash_points : int;
  violations : violation list;
}

type report = {
  spec : spec;
  scenarios : scenario_result list;
  coverage : Cov.t option;
}

(* ---------------- one trial ---------------- *)

type outcome = Completed | Crashed of string list

type trial = {
  trial_labels : string list;
  outcome : outcome;
  crasher : string option;  (** Which task's boundary tripped (multi only). *)
}

(* A scenario's [setup] is its template payload (it is trip-independent),
   so a trip pass costs only the armed [op] plus the restore. *)
let scenario_kind : unit Trial.kind = Trial.kind "scenario"

(* Run a job's armed body on a rented world with the probe set to trip at
   [trip] ([-1] = count only) and — if the probe fired — audit the warm
   recovery with [check]. Every trial is a pure function of (spec, seed,
   scenario, trip), which is what lets the schedule shard across
   domains. *)
let trial ?(crasher = fun () -> None) r ~trip ~check body =
  let crashed = Trial.armed r ~trip body in
  let trial_labels = Boundary.labels r.Trial.probe in
  if not crashed then { trial_labels; outcome = Completed; crasher = None }
  else
    let crasher = crasher () in
    { trial_labels; outcome = Crashed (Trial.audit r ~cold:false ~check); crasher }

let run_trial ?obs ~spec ~seed (scenario : Scenario.t) ~trip =
  Trial.run ?obs ~spec ~seed ~kind:scenario_kind ~key:scenario.Scenario.slug
    ~setup:(fun w -> scenario.Scenario.setup (World.fs w))
  @@ fun r ->
  trial r ~trip ~check:scenario.Scenario.check (fun () ->
      scenario.Scenario.op ~vista_hook:(Boundary.vista_event r.Trial.probe) (World.fs r.Trial.world))

(* The multi-task trial: same cycle, but the scenario's task bodies run
   as scheduler fibers under a seeded interleaving, with every boundary
   a preemption point and every scheduler event a boundary. The trial is
   a pure function of (spec, seed, scenario, sched_seed, trip): the trip
   replay follows the identical interleaving up to the crash. One
   template serves every (sched_seed, trip) of a multi scenario — the
   interleaving is attempt state, not world state. *)
let run_trial_multi ?obs ~spec ~seed ~sched_seed (m : Scenario.multi) ~trip =
  Trial.run ?obs ~spec ~seed ~kind:scenario_kind ~key:m.Scenario.m_slug
    ~setup:(fun w -> m.Scenario.m_setup (World.fs w))
  @@ fun r ->
  let probe = r.Trial.probe and fs = World.fs r.Trial.world in
  let sched = Sched.create ~seed:sched_seed in
  Sched.set_on_point sched (Boundary.point probe);
  Boundary.set_on_emit probe (fun _ -> Sched.preempt sched);
  List.iteri
    (fun i body ->
      let th = Task.make ~id:i ~name:(Printf.sprintf "t%d" i) in
      Sched.spawn sched th (fun task -> body sched task fs))
    m.Scenario.m_tasks;
  trial r ~trip ~check:m.Scenario.m_check
    ~crasher:(fun () -> Option.map Task.name (Sched.crashed sched))
    (fun () -> Sched.run sched)

(* ---------------- the exhaustive run ---------------- *)

let resolve_scenarios only =
  match only with
  | None -> Scenario.all
  | Some slugs ->
    List.map
      (fun slug ->
        match Scenario.find slug with
        | Some s -> s
        | None -> invalid_arg ("rio_check: unknown scenario slug " ^ slug))
      slugs

(* A schedule job: one boundary enumeration to explore. Single-task
   scenarios contribute one job each; with [interleave = n] every
   multi-task scenario contributes n jobs, one per scheduler seed, the
   slug suffixed "#i<j>" so each interleaving reports separately. *)
type job =
  | Single of Scenario.t
  | Multi of Scenario.multi * int * int  (* scenario, index, sched seed *)

let job_slug = function
  | Single sc -> sc.Scenario.slug
  | Multi (m, j, _) -> Printf.sprintf "%s#i%d" m.Scenario.m_slug j

let job_name = function
  | Single sc -> sc.Scenario.name
  | Multi (m, j, _) -> Printf.sprintf "%s (interleaving %d)" m.Scenario.m_name j

let run_job ?obs ~spec ~seed job ~trip =
  match job with
  | Single sc -> run_trial ?obs ~spec ~seed sc ~trip
  | Multi (m, _, sched_seed) -> run_trial_multi ?obs ~spec ~seed ~sched_seed m ~trip

let run ?(spec = rio_prot) ?only ?(interleave = 0) (cfg : Run.config) =
  let scenarios = resolve_scenarios only in
  let jobs =
    List.map (fun sc -> Single sc) scenarios
    @
    if interleave <= 0 then []
    else
      List.concat_map
        (fun m ->
          List.init interleave (fun j -> Multi (m, j, (cfg.Run.seed * 0x10001) + j)))
        Scenario.multis
  in
  (* Counting pass: same seed(s), never trips — yields the boundary order
     the trip passes then replay point by point. *)
  let counted =
    List.map
      (fun job -> (job, (run_job ~spec ~seed:cfg.Run.seed job ~trip:(-1)).trial_labels))
      jobs
  in
  let tasks =
    List.concat_map (fun (job, labels) -> List.mapi (fun i l -> (job, i, l)) labels) counted
  in
  let report_done = Run.reporter cfg ~total:(List.length tasks) in
  let results =
    Pool.map_list ~domains:cfg.Run.domains
      (fun (job, trip, label) ->
        let t = run_job ~spec ~seed:cfg.Run.seed job ~trip in
        let cov_outcome, problems =
          match t.outcome with
          | Crashed [] -> (Cov.Survived, [])
          | Crashed problems -> (Cov.Violated, problems)
          | Completed ->
            ( Cov.Unreached,
              [ Printf.sprintf "crash point %d (%s) was not reached on replay" trip label ]
            )
        in
        let narrative =
          if problems = [] then []
          else begin
            (* Counterexample: replay the identical trial with the flight
               recorder live and distill the narrative. *)
            let obs = Run.recorder cfg () in
            ignore (run_job ~obs ~spec ~seed:cfg.Run.seed job ~trip : trial);
            Forensics.narrative (Forensics.summarize obs)
          end
        in
        report_done ~label:(job_slug job) ~detail:label;
        let role =
          match job with
          | Single _ -> "solo"
          | Multi _ -> ( match t.crasher with Some _ -> "crasher" | None -> "solo")
        in
        (job_slug job, { ordinal = trip; label; problems; narrative }, cov_outcome, role))
      tasks
  in
  let coverage =
    if not cfg.Run.coverage then None
    else begin
      (* Results arrive in task (schedule) order at any [-j], so this fold
         is deterministic: the map renders byte-identically. *)
      let cov = Cov.create () in
      List.iter (fun (_, labels) -> Cov.note_schedule cov ~labels) counted;
      List.iter
        (fun (slug, v, outcome, role) ->
          Cov.record cov ~task:role ~cls:(Cov.label_class v.label) ~op:slug
            ~ordinal:v.ordinal outcome)
        results;
      Some cov
    end
  in
  let scenarios =
    List.map
      (fun (job, labels) ->
        {
          slug = job_slug job;
          name = job_name job;
          crash_points = List.length labels;
          violations =
            List.filter_map
              (fun (slug, v, _, _) ->
                if slug = job_slug job && v.problems <> [] then Some v else None)
              results;
        })
      counted
  in
  { spec; scenarios; coverage }

let crash_points r = List.fold_left (fun acc s -> acc + s.crash_points) 0 r.scenarios

let violation_count r =
  List.fold_left (fun acc s -> acc + List.length s.violations) 0 r.scenarios

(* ---------------- rendering ---------------- *)

let spec_line (spec : spec) =
  Printf.sprintf "%s (protection %s, shadow %s, registry %s, backend %s%s)" spec.label
    (if spec.protection then "on" else "off")
    (if spec.shadow then "on" else "off")
    (if spec.registry then "on" else "off")
    (Rio_disk.Backend.to_string spec.backend)
    (if spec.cold then ", cold recovery" else "")

let render_violation buf ~slug v =
  Buffer.add_string buf
    (Printf.sprintf "\ncounterexample: %s @ crash point %d (%s)\n" slug v.ordinal v.label);
  List.iter (fun p -> Buffer.add_string buf ("  problem: " ^ p ^ "\n")) v.problems;
  if v.narrative <> [] then begin
    Buffer.add_string buf "  trace:\n";
    List.iter (fun l -> Buffer.add_string buf ("    | " ^ l ^ "\n")) v.narrative
  end

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("crash-schedule check: " ^ spec_line r.spec ^ "\n");
  Buffer.add_string buf (Printf.sprintf "  %-10s %12s  %s\n" "scenario" "crash points" "violations");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-10s %12d  %d\n" s.slug s.crash_points (List.length s.violations)))
    r.scenarios;
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %12d  %d\n" "total" (crash_points r) (violation_count r));
  List.iter
    (fun s -> List.iter (fun v -> render_violation buf ~slug:s.slug v) s.violations)
    r.scenarios;
  Buffer.contents buf

(* ---------------- machine-readable reports ---------------- *)

let spec_json (spec : spec) =
  Json.Obj
    [
      ("label", Json.Str spec.label);
      ("protection", Json.Bool spec.protection);
      ("shadow", Json.Bool spec.shadow);
      ("registry", Json.Bool spec.registry);
      ("policy", Json.Str (Fs.policy_name spec.policy));
      ("backend", Json.Str (Rio_disk.Backend.to_string spec.backend));
      ("wb_unordered", Json.Bool spec.wb_unordered);
      ("cold", Json.Bool spec.cold);
      ("expect_safe", Json.Bool spec.expect_safe);
    ]

let violation_json v =
  Json.Obj
    [
      ("ordinal", Json.Int v.ordinal);
      ("label", Json.Str v.label);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) v.problems));
    ]

let report_json r =
  Json.Obj
    ([
       ("spec", spec_json r.spec);
       ( "scenarios",
         Json.Arr
           (List.map
              (fun s ->
                Json.Obj
                  [
                    ("slug", Json.Str s.slug);
                    ("crash_points", Json.Int s.crash_points);
                    ("violations", Json.Int (List.length s.violations));
                    ("counterexamples", Json.Arr (List.map violation_json s.violations));
                  ])
              r.scenarios) );
       ("crash_points", Json.Int (crash_points r));
       ("violations", Json.Int (violation_count r));
     ]
    @
    match r.coverage with
    | Some cov -> [ ("coverage", Cov.to_json cov) ]
    | None -> [])

(* ---------------- the ablation matrix ---------------- *)

type matrix_entry = { entry_report : report; ok : bool }

let run_matrix ?(specs = matrix_specs) ?only (cfg : Run.config) =
  List.map
    (fun spec ->
      let entry_report = run ~spec ?only cfg in
      let safe = violation_count entry_report = 0 in
      { entry_report; ok = safe = spec.expect_safe })
    specs

let matrix_ok entries = List.for_all (fun e -> e.ok) entries

let matrix_json entries =
  Json.Arr
    (List.map
       (fun e ->
         Json.Obj [ ("ok", Json.Bool e.ok); ("report", report_json e.entry_report) ])
       entries)

let render_matrix entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "crash-schedule matrix: the checker must catch the unsafe ablations\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %12s %11s  %-9s %s\n" "configuration" "crash points" "violations"
       "expected" "verdict");
  List.iter
    (fun e ->
      let r = e.entry_report in
      let expected = if r.spec.expect_safe then "safe" else "unsafe" in
      let verdict =
        match (e.ok, r.spec.expect_safe) with
        | true, true -> "ok"
        | true, false -> "ok (caught)"
        | false, true -> "MISMATCH: violations in a safe configuration"
        | false, false -> "MISMATCH: known-unsafe configuration not flagged"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %12d %11d  %-9s %s\n" r.spec.label (crash_points r)
           (violation_count r) expected verdict))
    entries;
  (* One counterexample per caught-unsafe configuration: the narrative is
     the evidence that the catch is real. *)
  List.iter
    (fun e ->
      let r = e.entry_report in
      if not r.spec.expect_safe then
        let first =
          List.find_map
            (fun s ->
              match s.violations with [] -> None | v :: _ -> Some (s.slug, v))
            r.scenarios
        in
        match first with
        | Some (slug, v) ->
          Buffer.add_string buf (Printf.sprintf "\n[%s]" r.spec.label);
          render_violation buf ~slug v
        | None -> ())
    entries;
  Buffer.contents buf
