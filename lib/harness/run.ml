module Trace = Rio_obs.Trace

type config = {
  seed : int;
  trials : int;
  scale : float;
  domains : int;
  backend : Rio_disk.Backend.kind;
  trace_dir : string option;
  coverage : bool;
  obs_capacity : int option;
  progress : Progress.t -> unit;
}

let default =
  {
    seed = 1;
    trials = 50;
    scale = 1.0;
    domains = 1;
    backend = Rio_disk.Backend.Scsi;
    trace_dir = None;
    coverage = false;
    obs_capacity = None;
    progress = (fun (_ : Progress.t) -> ());
  }

(* Clamp the trace-ring capacity into Trace's supported range, and
   remember the clamp so the CLI can tell the user. Pure in the config, so
   every call site sees the same sanitized value. *)
let sanitize_obs cfg =
  match cfg.obs_capacity with
  | None -> (Trace.default_capacity, [])
  | Some c ->
    let c' = max 0 (min Trace.max_capacity c) in
    let warnings =
      if c' = c then []
      else [ Printf.sprintf "trace-ring capacity %d out of range, clamped to %d" c c' ]
    in
    (c', warnings)

let obs_capacity cfg = fst (sanitize_obs cfg)
let obs_warnings cfg = snd (sanitize_obs cfg)

let recorder cfg () = Trace.create ~capacity:(obs_capacity cfg) ()

let progress_sink cfg =
  if cfg.domains > 1 then Rio_parallel.Pool.sink cfg.progress else cfg.progress

let reporter cfg ~total =
  let completed = Atomic.make 0 in
  let sink = progress_sink cfg in
  fun ~label ~detail ->
    let c = 1 + Atomic.fetch_and_add completed 1 in
    sink { Progress.completed = c; total; label; detail }
