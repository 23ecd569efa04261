(* Benchmark-side spans: wall-clock intervals recorded around the calls the
   benchmark makes into each layer. Every op opens one root span (its
   trial); the spans opened inside it share the trial's id. Spans stay in
   memory until the run ends, when they are summarized and optionally
   written out as Chrome trace_event JSON.

   A span's self time is its duration minus the time covered by its
   children, so the self times of one trial's spans sum exactly to the
   trial span; the trial span's own self time is the work the benchmark
   did not attribute to any layer. *)

type record = {
  name : string;
  trial : int;
  depth : int;
  start : float;
  dur : float;
  self : float;
}

type frame = { fname : string; fstart : float; mutable child : float }

type t = {
  mutable records : record list;
  mutable stack : frame list;
  mutable trials : int;
  counters : (string, float) Hashtbl.t;
}

let create () = { records = []; stack = []; trials = 0; counters = Hashtbl.create 16 }

let enter t name =
  let f = { fname = name; fstart = Unix.gettimeofday (); child = 0. } in
  t.stack <- f :: t.stack;
  f

let leave t f =
  let stop = Unix.gettimeofday () in
  let dur = stop -. f.fstart in
  (match t.stack with
  | top :: rest when top == f -> (
    t.stack <- rest;
    match rest with parent :: _ -> parent.child <- parent.child +. dur | [] -> ())
  | _ -> invalid_arg "Spans.leave: spans must close innermost first");
  t.records <-
    {
      name = f.fname;
      trial = t.trials;
      depth = List.length t.stack;
      start = f.fstart;
      dur;
      self = dur -. f.child;
    }
    :: t.records

let span t name fn =
  let f = enter t name in
  match fn () with
  | v ->
    leave t f;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    leave t f;
    Printexc.raise_with_backtrace e bt

let trial t name fn =
  if t.stack <> [] then invalid_arg "Spans.trial: a trial span cannot nest";
  t.trials <- t.trials + 1;
  span t name fn

let count t name v =
  Hashtbl.replace t.counters name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

let durations t name =
  Array.of_list (List.filter_map (fun r -> if r.name = name then Some r.dur else None) t.records)

let total t name = Array.fold_left ( +. ) 0. (durations t name)

let p50 t name =
  let d = durations t name in
  if Array.length d = 0 then 0. else Rio_util.Stats.median d

type row = { rname : string; count : int; total_s : float; self_s : float; p50_s : float }

let summary t =
  let by = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let durs, self = Option.value ~default:([], 0.) (Hashtbl.find_opt by r.name) in
      Hashtbl.replace by r.name (r.dur :: durs, self +. r.self))
    t.records;
  Hashtbl.fold
    (fun rname (durs, self_s) acc ->
      let a = Array.of_list durs in
      {
        rname;
        count = Array.length a;
        total_s = Array.fold_left ( +. ) 0. a;
        self_s;
        p50_s = Rio_util.Stats.median a;
      }
      :: acc)
    by []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

(* Share of root-span time no layer span covers. *)
let unattributed_pct t =
  let root = ref 0. and self = ref 0. in
  List.iter
    (fun r ->
      if r.depth = 0 then begin
        root := !root +. r.dur;
        self := !self +. r.self
      end)
    t.records;
  if !root > 0. then 100. *. !self /. !root else 0.

let pp_summary oc t =
  Printf.fprintf oc "%-26s %8s %11s %11s %10s\n" "span" "count" "total ms" "self ms" "p50 ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-26s %8d %11.1f %11.1f %10.3f\n" r.rname r.count (1e3 *. r.total_s)
        (1e3 *. r.self_s) (1e3 *. r.p50_s))
    (summary t)

let chrome_json t =
  let module Json = Rio_util.Json in
  let t0 = List.fold_left (fun m r -> Float.min m r.start) infinity t.records in
  let us x = Json.Float (Float.round (1e6 *. x)) in
  let events =
    List.rev_map
      (fun r ->
        Json.Obj
          [
            ("name", Json.Str r.name);
            ("ph", Json.Str "X");
            ("ts", us (r.start -. t0));
            ("dur", us r.dur);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", Json.Obj [ ("trial", Json.Int r.trial); ("self_us", us r.self) ]);
          ])
      t.records
  in
  let summary =
    List.map
      (fun r ->
        Json.Obj
          [
            ("name", Json.Str r.rname);
            ("count", Json.Int r.count);
            ("total_ms", Json.Float (1e3 *. r.total_s));
            ("self_ms", Json.Float (1e3 *. r.self_s));
            ("p50_ms", Json.Float (1e3 *. r.p50_s));
          ])
      (summary t)
  in
  Json.Obj [ ("traceEvents", Json.Arr events); ("summary", Json.Arr summary) ]
