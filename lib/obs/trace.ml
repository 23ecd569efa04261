module Json = Rio_util.Json

type subsystem = Engine | Disk | Vm | Rio | Fault | Kernel | Fs | Harness

let subsystem_name = function
  | Engine -> "engine"
  | Disk -> "disk"
  | Vm -> "vm"
  | Rio -> "rio"
  | Fault -> "fault"
  | Kernel -> "kernel"
  | Fs -> "fs"
  | Harness -> "harness"

type kind =
  | Dispatch of { due_us : int; end_us : int; queue_depth : int }
  | Clock of { advances : int }
  | Disk_request of {
      sector : int;
      sectors : int;
      write : bool;
      sync : bool;
      issued_us : int;
      done_us : int;
    }
  | Protection_trap of { paddr : int }
  | Protection_toggle of { paddr : int; writable : bool }
  | Fault_injected of { fault : string; site : string }
  | Wild_store of { paddr : int; width : int; region : string }
  | Registry_update of { paddr : int; ino : int; size : int }
  | Checksum_mismatch of { paddr : int; expected : int; actual : int }
  | Shadow_flip of { paddr : int; engaged : bool }
  | Activity of { name : string; start_us : int; end_us : int }
  | Crash of { message : string; during : string }
  | Crash_flush of { data : int; meta : int }
  | Phase of { name : string; start_us : int; end_us : int }
  | Swap_dump of { dumped : int; truncated : int }
  | Mark of string

let kind_label = function
  | Dispatch _ -> "dispatch"
  | Clock _ -> "clock"
  | Disk_request _ -> "disk_request"
  | Protection_trap _ -> "protection_trap"
  | Protection_toggle _ -> "protection_toggle"
  | Fault_injected _ -> "fault_injected"
  | Wild_store _ -> "wild_store"
  | Registry_update _ -> "registry_update"
  | Checksum_mismatch _ -> "checksum_mismatch"
  | Shadow_flip _ -> "shadow_flip"
  | Activity _ -> "activity"
  | Crash _ -> "crash"
  | Crash_flush _ -> "crash_flush"
  | Phase _ -> "phase"
  | Swap_dump _ -> "swap_dump"
  | Mark _ -> "mark"

type event = { ts_us : int; sub : subsystem; kind : kind }

type counter = { cname : string; mutable count : int; c_live : bool }

type histogram = {
  hname : string;
  mutable data : int array;
  mutable n : int;
  h_live : bool;
}

type t = {
  cap : int;
  ring : event option array;
  mutable head : int;  (* next write position *)
  mutable stored : int;
  mutable total : int;
  mutable clock : unit -> int;
  mutable counters : counter list;  (* reverse registration order *)
  mutable histograms : histogram list;
  live : bool;
}

let null =
  {
    cap = 0;
    ring = [||];
    head = 0;
    stored = 0;
    total = 0;
    clock = (fun () -> 0);
    counters = [];
    histograms = [];
    live = false;
  }

let default_capacity = 65536
let max_capacity = 1 lsl 22

let create ?(capacity = default_capacity) () =
  {
    cap = capacity;
    ring = Array.make capacity None;
    head = 0;
    stored = 0;
    total = 0;
    clock = (fun () -> 0);
    counters = [];
    histograms = [];
    live = true;
  }

let enabled t = t.live

let set_clock t f = if t.live then t.clock <- f

let now t = t.clock ()

let emit t sub kind =
  if t.live then begin
    t.total <- t.total + 1;
    if t.cap > 0 then begin
      t.ring.(t.head) <- Some { ts_us = t.clock (); sub; kind };
      t.head <- (t.head + 1) mod t.cap;
      if t.stored < t.cap then t.stored <- t.stored + 1
    end
  end

let events t =
  if t.stored = 0 then []
  else begin
    let first = (t.head - t.stored + t.cap) mod t.cap in
    List.init t.stored (fun i ->
        match t.ring.((first + i) mod t.cap) with
        | Some e -> e
        | None -> assert false)
  end

let total t = t.total

let dropped t = t.total - t.stored

let capacity t = t.cap

(* ---------------- metrics ---------------- *)

let counter t name =
  if not t.live then { cname = name; count = 0; c_live = false }
  else
    match List.find_opt (fun c -> c.cname = name) t.counters with
    | Some c -> c
    | None ->
      let c = { cname = name; count = 0; c_live = true } in
      t.counters <- c :: t.counters;
      c

let incr ?(by = 1) c = if c.c_live then c.count <- c.count + by

let counter_value c = c.count

let histogram t name =
  if not t.live then { hname = name; data = [||]; n = 0; h_live = false }
  else
    match List.find_opt (fun h -> h.hname = name) t.histograms with
    | Some h -> h
    | None ->
      let h = { hname = name; data = Array.make 64 0; n = 0; h_live = true } in
      t.histograms <- h :: t.histograms;
      h

let observe h v =
  if h.h_live then begin
    if h.n = Array.length h.data then begin
      let bigger = Array.make (2 * max 1 h.n) 0 in
      Array.blit h.data 0 bigger 0 h.n;
      h.data <- bigger
    end;
    h.data.(h.n) <- v;
    h.n <- h.n + 1
  end

let histogram_values h = Array.sub h.data 0 h.n

let percentile values p =
  Rio_util.Stats.percentile (Array.map float_of_int values) p

(* ---------------- snapshots ---------------- *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * int array) list;
}

let snapshot (t : t) =
  {
    counters = List.rev_map (fun c -> (c.cname, c.count)) t.counters;
    histograms = List.rev_map (fun h -> (h.hname, histogram_values h)) t.histograms;
  }

let merge_snapshots snaps =
  (* Fold in list order so the aggregate is deterministic: names appear in
     first-seen order, counters sum, histogram observations concatenate. *)
  let merge_assoc combine acc entries =
    List.fold_left
      (fun acc (name, v) ->
        match List.assoc_opt name acc with
        | Some prev -> List.map (fun (n, x) -> if n = name then (n, combine prev v) else (n, x)) acc
        | None -> acc @ [ (name, v) ])
      acc entries
  in
  List.fold_left
    (fun acc s ->
      {
        counters = merge_assoc ( + ) acc.counters s.counters;
        histograms = merge_assoc (fun a b -> Array.append a b) acc.histograms s.histograms;
      })
    { counters = []; histograms = [] }
    snaps

let snapshot_json s =
  let hist_json (name, values) =
    if Array.length values = 0 then (name, Json.Obj [ ("n", Json.Int 0) ])
    else
      let fl = Array.map float_of_int values in
      let mn, mx = Rio_util.Stats.min_max fl in
      ( name,
        Json.Obj
          [
            ("n", Json.Int (Array.length values));
            ("min", Json.Float mn);
            ("mean", Json.Float (Rio_util.Stats.mean fl));
            ("p50", Json.Float (Rio_util.Stats.percentile fl 50.));
            ("p90", Json.Float (Rio_util.Stats.percentile fl 90.));
            ("p99", Json.Float (Rio_util.Stats.percentile fl 99.));
            ("max", Json.Float mx);
          ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("histograms", Json.Obj (List.map hist_json s.histograms));
    ]
