(* What every workload measures the same way: host wall time, the set-up
   time, the timed ops, the process's peak memory, GC counts, and the
   result line the benchmark prints last. *)

let now = Unix.gettimeofday

let time fn =
  let t0 = now () in
  let v = fn () in
  (v, now () -. t0)

(* Host speed. The machines this benchmark was sized on share memory
   bandwidth with other tenants, and their speed drifts by a quarter and
   more for seconds to minutes at a time, often for a whole run. A fixed
   probe of allocation, hashing and sorting, built only from the standard
   library and so untouched by any change to the program, slows down with
   them: over 150 s of 100-trial fuzz chunks its time tracked the chunks'
   with correlation 0.88, and where the chunks' medians over 40-chunk
   windows differed by 61%, those of chunk ÷ probe differed by 12%. So
   every host time is scaled by [probe_ref_s] ÷ the probe's time around
   it: the time it would have taken at the host speed at which the probe
   takes [probe_ref_s], that of a quiet phase of a 2-core KVM guest. *)
let probe_ref_s = 0.008

let run_probe () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (Bytes.make 24 'x')
  done;
  let sum = ref 0 in
  for i = 0 to 30_000 do
    match Hashtbl.find_opt h (i land 0xffff) with Some b -> sum := !sum + Bytes.length b | None -> ()
  done;
  let sorted = List.sort compare (List.init 10_000 (fun i -> (i * 104_729) land 0xfffff)) in
  ignore (Sys.opaque_identity (!sum + List.length sorted));
  now () -. t0

(* The probe runs in a helper process forked before the workload builds
   anything, so the garbage collector work it pays is for its own small
   heap, never for the program's; a full collection before each probe
   starts every probe from the same heap. The helper waits on a pipe
   between probes and exits when the pipe closes, which [at_exit] waits
   for. It must run on the CPU the workload runs on, so BENCHMARK.json
   pins the benchmark to one CPU with taskset and the helper inherits
   that: in ten interleaved pairs of 25 s runs per workload on a loaded
   2-core guest, the scaled throughput spread 3.6% (campaign) and 4.8%
   (fuzz) pinned, and 10.3% and 11.2% with the two processes free to
   land on different CPUs, whose other tenants differ. *)
type prober = { request : out_channel; reply : in_channel }

let prober =
  lazy
    (let req_r, req_w = Unix.pipe ~cloexec:true () in
     let rep_r, rep_w = Unix.pipe ~cloexec:true () in
     match Unix.fork () with
     | 0 ->
       Unix.close req_w;
       Unix.close rep_r;
       let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
       (try
          while true do
            ignore (input_char ic);
            Gc.full_major ();
            Printf.fprintf oc "%h\n%!" (run_probe ())
          done
        with End_of_file -> ());
       Unix._exit 0
     | pid ->
       Unix.close req_r;
       Unix.close rep_w;
       let p = { request = Unix.out_channel_of_descr req_w; reply = Unix.in_channel_of_descr rep_r } in
       at_exit (fun () ->
           close_out p.request;
           close_in p.reply;
           ignore (Unix.waitpid [] pid));
       p)

let start_prober () = ignore (Lazy.force prober)

let probe () =
  let p = Lazy.force prober in
  output_char p.request 'p';
  flush p.request;
  float_of_string (input_line p.reply)

(* The op times of one round. A probe runs as the round starts and after
   every [block_s] of op time; each op is scaled by the mean of the two
   probes around its block (see [per_input_scaled]). Probe time is not op
   time. The host's speed moves within a second (probes of one run range
   over 2x), so the blocks are short: in the pinned runs above, 0.1 s
   blocks spread campaign's throughput 3.6% where 0.5 s blocks of the
   same runs spread it 6.7%. *)
let block_s = 0.1

type recorder = {
  mutable ops : (float * int) list;  (** Host seconds and block, newest first. *)
  mutable probes : float list;  (** Newest first; probes [b] and [b + 1] bracket block [b]. *)
  mutable in_block : float;
  mutable block : int;
}

let recorder () = { ops = []; probes = [ probe () ]; in_block = 0.; block = 0 }

let record r dt =
  r.ops <- (dt, r.block) :: r.ops;
  r.in_block <- r.in_block +. dt;
  if r.in_block >= block_s then begin
    r.probes <- probe () :: r.probes;
    r.block <- r.block + 1;
    r.in_block <- 0.
  end

let timed_op r fn =
  let v, dt = time fn in
  record r dt;
  v

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* One round's ops, in order: each one's host seconds and the mean of the
   two probes around its block; and the process's peak memory so far. *)
type round = { host : float array; probe : float array; peak_mb : float }

let finish r =
  if r.in_block > 0. then r.probes <- probe () :: r.probes;
  let p = Array.of_list (List.rev r.probes) in
  let ops = Array.of_list (List.rev r.ops) in
  {
    host = Array.map fst ops;
    probe = Array.map (fun (_, b) -> (p.(b) +. p.(b + 1)) /. 2.) ops;
    peak_mb = peak_rss_mb ();
  }

(* Repeat [round] until [seconds] of wall time have passed, starting a new
   round only while the mean round so far still fits; at least one round
   runs. Every round runs the same inputs in the same order. *)
let closed_loop ~seconds round =
  let t0 = now () in
  let rounds = ref [] and n = ref 0 in
  let continue () =
    !n = 0
    ||
    let spent = now () -. t0 in
    spent +. (spent /. float_of_int !n) <= seconds
  in
  while continue () do
    rounds := round () :: !rounds;
    incr n
  done;
  List.rev !rounds

(* Each input's time over the rounds. Whole ops are timed, so the GC work
   they do stays counted. As measured, it is the median. Scaled, it is the
   mean of the rounds' scaled times weighted by 1 / probe^2: the slower the
   host, the more a time is scaled and the less exactly (the program slows
   somewhat more than the probe when the host is slowest), so a round run
   while the host was fast counts for more. *)
let per_input_host rounds =
  Array.init
    (Array.length (List.hd rounds).host)
    (fun i -> Rio_util.Stats.median (Array.of_list (List.map (fun r -> r.host.(i)) rounds)))

let per_input_scaled rounds =
  Array.init
    (Array.length (List.hd rounds).host)
    (fun i ->
      let sum, weights =
        List.fold_left
          (fun (sum, weights) r ->
            let p = r.probe.(i) in
            let w = 1. /. (p *. p) in
            (sum +. (w *. r.host.(i) *. probe_ref_s /. p), weights +. w))
          (0., 0.) rounds
      in
      sum /. weights)

type gc ={ minor_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let pct xs p = if Array.length xs = 0 then 0. else Rio_util.Stats.percentile xs p
let per a b = if b > 0. then a /. b else 0.

(* A metric as reported: name, value, unit, and how many samples it
   summarizes. *)
type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

(* Set-up time: process start through the warm-up op. Each sample is a
   fresh process of this executable that runs only that ([args] carry
   --setup-only), timed from spawn to exit, so runtime start-up, module
   initialization and whatever the warm-up builds count in every sample.
   Each sample is scaled by the probes just before and after it; the
   median of [setup_runs] samples is reported, and for people also the
   median as measured. Over two sets of ten seeds the median of 15
   samples spread as much as that of 5 (4% to 13%): the spread comes
   from the host's state between runs, not from the samples within one. *)
let setup_runs = 5

let setup_s args =
  let exe = Sys.executable_name in
  let sample () =
    let p0 = probe () in
    let t0 = now () in
    let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout Unix.stderr in
    let dt =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> now () -. t0
      | _ -> failwith "a set-up process failed"
    in
    (dt, dt *. probe_ref_s *. 2. /. (p0 +. probe ()))
  in
  let samples = Array.init setup_runs (fun _ -> sample ()) in
  let median f = Rio_util.Stats.median (Array.map f samples) in
  ( metric "setup_s" "s" ~samples:setup_runs (median snd),
    metric "setup_s.host" "s" ~samples:setup_runs (median fst) )

(* A traced run pairs every op: the untraced public call, timed along with
   the GC work it does, and the traced composition of the same input,
   whose result must agree with it. The two sides alternate which runs
   first, so neither gets the other's warm caches. *)
type pairing = {
  mutable pairs : int;
  mutable untraced_s : float;
  mutable traced_s : float;
  mutable mismatches : int;
  mutable gc : gc;
}

let pairing () =
  {
    pairs = 0;
    untraced_s = 0.;
    traced_s = 0.;
    mismatches = 0;
    gc = { minor_words = 0.; major_collections = 0 };
  }

let pair p ~untraced ~traced =
  let run_untraced () =
    let g0 = gc_now () in
    let u, du = time untraced in
    let g1 = gc_now () in
    p.untraced_s <- p.untraced_s +. du;
    p.gc <-
      {
        minor_words = p.gc.minor_words +. g1.minor_words -. g0.minor_words;
        major_collections = p.gc.major_collections + g1.major_collections - g0.major_collections;
      };
    u
  in
  let run_traced () =
    let t, dt = time traced in
    p.traced_s <- p.traced_s +. dt;
    t
  in
  p.pairs <- p.pairs + 1;
  if p.pairs mod 2 = 1 then
    let u = run_untraced () in
    (u, run_traced ())
  else
    let t = run_traced () in
    (run_untraced (), t)

let gc_metrics p ~ops =
  [
    metric "gc.minor_words_per_op" "words" (p.gc.minor_words /. ops);
    metric "gc.major_collections_per_op" "count" (float_of_int p.gc.major_collections /. ops);
  ]

let overhead_pct p = 100. *. (per p.traced_s p.untraced_s -. 1.)

let ops_per_s ~suffix ~samples t =
  metric ("ops_per_s" ^ suffix) "1/s" ~samples (per (float_of_int (Array.length t)) (Array.fold_left ( +. ) 0. t))

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;  (** What the result line carries. *)
  report : metric list;  (** Printed for people only, before the result line. *)
}

(* The result of an untraced run: the end-to-end metrics over the scaled
   times, and for people the same as measured, the op-time percentiles,
   and the rounds. The percentiles carry no bound: over ten seeds the
   median op of table2, one cell of 23, spread up to 8%, and the tail
   moves more with the host's slow phases. Peak memory is read after the
   first round, because how many rounds fit depends on the host's speed
   and memory grows with them: fuzz-tasks by about 3 MB a round. *)
let timed ~setup:(setup, setup_host) ~rounds ~attempted ~failed report =
  let scaled = per_input_scaled rounds and host = per_input_host rounds in
  let samples = Array.length scaled * List.length rounds in
  let totals = Array.of_list (List.map (fun r -> Array.fold_left ( +. ) 0. r.host) rounds) in
  let n = Array.length totals in
  let ms = Array.map (fun s -> 1e3 *. s) scaled in
  {
    attempted;
    failed;
    correct = failed = 0;
    metrics =
      [ setup; ops_per_s ~suffix:"" ~samples scaled; metric "peak_rss_mb" "MB" (List.hd rounds).peak_mb ];
    report =
      [ setup_host; ops_per_s ~suffix:".host" ~samples host ]
      @ [
          metric "op_ms.p50" "ms" ~samples (pct ms 50.);
          metric "op_ms.p95" "ms" ~samples (pct ms 95.);
          metric "round_s.min" "s" ~samples:n (pct totals 0.);
          metric "round_s.median" "s" ~samples:n (pct totals 50.);
          metric "round_s.max" "s" ~samples:n (pct totals 100.);
        ]
      @ report;
  }

let print_report oc r =
  List.iter
    (fun m -> Printf.fprintf oc "%-30s %16.6f %-8s (n=%d)\n" m.name m.value m.unit m.samples)
    (r.metrics @ r.report);
  Printf.fprintf oc "%-30s %16d\n%-30s %16d\n" "ops_attempted" r.attempted "ops_failed" r.failed

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "non-finite metric value"

let result_line r =
  let str s = "\"" ^ Rio_util.Json.escape s ^ "\"" in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str m.name) (json_number m.value)
          (str m.unit))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " metrics)
