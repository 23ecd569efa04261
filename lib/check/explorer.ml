module Fs = Rio_fs.Fs
module Cov = Rio_cov.Cov
module Json = Rio_util.Json

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

type scenario_result = { slug : string; crash_points : int; violations : violation list }

type report = {
  spec : spec;
  scenarios : scenario_result list;
  coverage : Cov.t option;
}

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
  let at = if v.ordinal < 0 then "no crash" else Printf.sprintf "crash point %d" v.ordinal in
  Buffer.add_string buf (Printf.sprintf "\ncounterexample: %s @ %s (%s)\n" slug at v.label);
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

let report_ok r = (violation_count r = 0) = r.spec.expect_safe

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
