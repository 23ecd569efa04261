module Json = Rio_util.Json

type outcome = Survived | Violated | Unreached

let label_class l =
  match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l

(* Power-of-two ordinal buckets: 0, 1, 2-3, 4-7, ..., 128-255, 256+. *)
let buckets = 10

let bucket_of_ordinal r =
  if r <= 0 then 0
  else begin
    let b = ref 0 and v = ref r in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (buckets - 1)
  end

let bucket_name b =
  if b <= 0 then "0"
  else if b = 1 then "1"
  else begin
    let lo = 1 lsl (b - 1) in
    if b = buckets - 1 then Printf.sprintf "%d+" lo
    else Printf.sprintf "%d-%d" lo ((1 lsl b) - 1)
  end

type tally = { mutable survived : int; mutable violated : int; mutable unreached : int }

let tally_total y = y.survived + y.violated + y.unreached

type t = {
  mutable schedules : int;
  mutable boundaries : int;  (* enumerated across all noted schedules *)
  mutable trials : int;  (* crash trials recorded *)
  mutable shrink : int;
  enumerated : (string, int) Hashtbl.t;  (* class -> boundaries enumerated *)
  (* Keyed (class, op kind, task role, ordinal bucket). The task axis
     says who the crash happened to: "solo" (single-task campaigns),
     "crasher" (the task whose op tripped the boundary), "bystander"
     (another task with an op in flight at someone else's crash). *)
  cells : (string * string * string * int, tally) Hashtbl.t;
}

let create () =
  {
    schedules = 0;
    boundaries = 0;
    trials = 0;
    shrink = 0;
    enumerated = Hashtbl.create 32;
    cells = Hashtbl.create 64;
  }

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let note_schedule t ~labels =
  t.schedules <- t.schedules + 1;
  List.iter
    (fun l ->
      t.boundaries <- t.boundaries + 1;
      bump t.enumerated (label_class l) 1)
    labels

let cell_tally t key =
  match Hashtbl.find_opt t.cells key with
  | Some y -> y
  | None ->
    let y = { survived = 0; violated = 0; unreached = 0 } in
    Hashtbl.replace t.cells key y;
    y

let record t ?(task = "solo") ~cls ~op ~ordinal outcome =
  t.trials <- t.trials + 1;
  let y = cell_tally t (cls, op, task, bucket_of_ordinal ordinal) in
  match outcome with
  | Survived -> y.survived <- y.survived + 1
  | Violated -> y.violated <- y.violated + 1
  | Unreached -> y.unreached <- y.unreached + 1

let add_shrink t n = t.shrink <- t.shrink + n

let merge ~into src =
  into.schedules <- into.schedules + src.schedules;
  into.boundaries <- into.boundaries + src.boundaries;
  into.trials <- into.trials + src.trials;
  into.shrink <- into.shrink + src.shrink;
  Hashtbl.iter (fun cls n -> bump into.enumerated cls n) src.enumerated;
  Hashtbl.iter
    (fun key y ->
      let d = cell_tally into key in
      d.survived <- d.survived + y.survived;
      d.violated <- d.violated + y.violated;
      d.unreached <- d.unreached + y.unreached)
    src.cells

let merge_list ts =
  let acc = create () in
  List.iter (fun t -> merge ~into:acc t) ts;
  acc

(* ---------------- reading ---------------- *)

let schedules t = t.schedules
let crash_trials t = t.trials
let boundaries_enumerated t = t.boundaries

let fold_cells t f acc = Hashtbl.fold (fun key y acc -> f key y acc) t.cells acc

let violations t = fold_cells t (fun _ y acc -> acc + y.violated) 0
let unreached t = fold_cells t (fun _ y acc -> acc + y.unreached) 0

let classes t =
  let seen = Hashtbl.create 32 in
  Hashtbl.iter (fun cls _ -> Hashtbl.replace seen cls ()) t.enumerated;
  Hashtbl.iter (fun (cls, _, _, _) _ -> Hashtbl.replace seen cls ()) t.cells;
  List.sort compare (Hashtbl.fold (fun cls () acc -> cls :: acc) seen [])

let ops t =
  let seen = Hashtbl.create 16 in
  Hashtbl.iter (fun (_, op, _, _) _ -> Hashtbl.replace seen op ()) t.cells;
  List.sort compare (Hashtbl.fold (fun op () acc -> op :: acc) seen [])

let tasks t =
  let seen = Hashtbl.create 4 in
  Hashtbl.iter (fun (_, _, task, _) _ -> Hashtbl.replace seen task ()) t.cells;
  List.sort compare (Hashtbl.fold (fun task () acc -> task :: acc) seen [])

let enumerated_of_class t cls =
  Option.value ~default:0 (Hashtbl.find_opt t.enumerated cls)

let crashed_of_class t cls =
  fold_cells t (fun (c, _, _, _) y acc -> if c = cls then acc + tally_total y else acc) 0

let violated_of_class t cls =
  fold_cells t (fun (c, _, _, _) y acc -> if c = cls then acc + y.violated else acc) 0

let cell_count t ~cls ~op ~bucket =
  fold_cells t
    (fun (c, o, _, b) y acc ->
      if c = cls && o = op && b = bucket then acc + tally_total y else acc)
    0

let cell_by_op t ~cls ~op =
  fold_cells t
    (fun (c, o, _, _) y acc -> if c = cls && o = op then acc + tally_total y else acc)
    0

let cell_by_bucket t ~cls ~bucket =
  fold_cells t
    (fun (c, _, _, b) y acc -> if c = cls && b = bucket then acc + tally_total y else acc)
    0

let cell_by_task t ~cls ~task =
  fold_cells t
    (fun (c, _, k, _) y acc -> if c = cls && k = task then acc + tally_total y else acc)
    0

let unhit_classes t =
  List.filter (fun cls -> crashed_of_class t cls = 0) (classes t)

(* ---------------- json ---------------- *)

let sorted_cells t =
  List.sort
    (fun ((a : string * string * string * int), _) (b, _) -> compare a b)
    (fold_cells t (fun key y acc -> (key, y) :: acc) [])

let to_json t =
  let class_json cls =
    Json.Obj
      [
        ("class", Json.Str cls);
        ("enumerated", Json.Int (enumerated_of_class t cls));
        ("crashed", Json.Int (crashed_of_class t cls));
        ("violated", Json.Int (violated_of_class t cls));
      ]
  in
  let cell_json ((cls, op, task, bucket), y) =
    Json.Obj
      [
        ("class", Json.Str cls);
        ("op", Json.Str op);
        ("task", Json.Str task);
        ("bucket", Json.Str (bucket_name bucket));
        ("survived", Json.Int y.survived);
        ("violated", Json.Int y.violated);
        ("unreached", Json.Int y.unreached);
      ]
  in
  Json.Obj
    [
      ("schedules", Json.Int t.schedules);
      ("boundaries_enumerated", Json.Int t.boundaries);
      ("crash_trials", Json.Int t.trials);
      ("violations", Json.Int (violations t));
      ("unreached", Json.Int (unreached t));
      ("shrink_attempts", Json.Int t.shrink);
      ("classes", Json.Arr (List.map class_json (classes t)));
      ("cells", Json.Arr (List.map cell_json (sorted_cells t)));
      ("unhit_classes", Json.Arr (List.map (fun c -> Json.Str c) (unhit_classes t)));
    ]
