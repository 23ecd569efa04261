module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Fsck = Rio_fs.Fsck
module Trace = Rio_obs.Trace
module World = Rio_world.World

type spec = {
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

type 'p kind = { name : string; id : 'p Type.Id.t }

let kind name = { name; id = Type.Id.make () }

type 'p t = { world : World.t; probe : Boundary.t; payload : 'p }

let build ~obs ~spec ~seed ~setup =
  let world =
    World.create ~obs ~protection:spec.protection ~shadow:spec.shadow ~registry:spec.registry
      ~policy:spec.policy ~backend:spec.backend ~wb_unordered:spec.wb_unordered ~seed ()
  in
  let probe = Boundary.create ~mem:(World.mem world) ~obs () in
  Boundary.instrument_hooks probe (World.hooks world);
  Boundary.instrument_disk probe (World.disk world);
  { world; probe; payload = setup world }

(* ---------------- the template cache ---------------- *)

(* A world build (boot + format + mount + payload setup) costs
   milliseconds; a rental instead rewinds a frozen template in O(dirty
   pages). Templates are per-domain (worker domains are spawned fresh by
   each [Pool.map_list], so the cache amortizes within one fan-out; the
   main domain keeps its cache for the whole process at [-j 1]) and keyed
   by everything the build depends on, so a restored world is
   byte-for-byte the world a fresh build would produce.

   Every harness works through one configuration at a time: an explorer
   run rents one template per scenario and a fuzz campaign one per
   payload, all of one (spec, seed). A rental for another (spec, seed)
   empties the cache — a matrix has moved on to its next configuration —
   so the cache holds one configuration's templates however many
   configurations a run walks. *)

type entry = Entry : 'p Type.Id.t * 'p t -> entry
type cache = { mutable config : string; templates : (string, entry) Hashtbl.t }

let cache = Domain.DLS.new_key (fun () -> { config = ""; templates = Hashtbl.create 8 })

let rent (type p) ~spec ~seed ~(kind : p kind) ~key ~setup : p t =
  let c = Domain.DLS.get cache in
  let config =
    Printf.sprintf "%s@%s/%d" spec.label (Rio_disk.Backend.to_string spec.backend) seed
  in
  if config <> c.config then begin
    Hashtbl.iter
      (fun _ (Entry (_, r)) ->
        Boundary.drop_capture r.probe;
        World.dispose r.world)
      c.templates;
    Hashtbl.reset c.templates;
    c.config <- config
  end;
  let key = kind.name ^ "/" ^ key in
  let r : p t =
    match Hashtbl.find_opt c.templates key with
    | Some (Entry (id, r)) -> (
      match Type.Id.provably_equal id kind.id with
      | Some Type.Equal -> r
      | None -> invalid_arg ("Trial: template kind clash at " ^ key))
    | None ->
      let r = build ~obs:Trace.null ~spec ~seed ~setup in
      World.on_restore r.world (fun () ->
          Boundary.drop_capture r.probe;
          Boundary.set_on_emit r.probe ignore);
      World.freeze r.world;
      Hashtbl.replace c.templates key (Entry (kind.id, r));
      r
  in
  ignore (World.restore r.world : int);
  r

let run ?(obs = Trace.null) ~spec ~seed ~kind ~key ~setup body =
  if (not (Trace.enabled obs)) && Rio_util.Fastpath.on () then
    body (rent ~spec ~seed ~kind ~key ~setup)
  else begin
    let r = build ~obs ~spec ~seed ~setup in
    Fun.protect
      ~finally:(fun () ->
        Boundary.drop_capture r.probe;
        World.dispose r.world)
      (fun () -> body r)
  end

(* ---------------- the crash cycle ---------------- *)

let armed r ~trip f =
  Boundary.arm r.probe ~trip_at:trip;
  Fun.protect
    ~finally:(fun () -> Boundary.disarm r.probe)
    (fun () -> match f () with () -> false | exception Boundary.Crash_here -> true)

let audit r ~cold ~check =
  let w = r.world in
  assert (Boundary.has_crash_image r.probe);
  Fs.crash (World.fs w);
  if cold then begin
    (* Memory is LOST: drop the capture instead of restoring it. Only the
       committed disk survives; fsck repairs it and a fresh kernel boots
       on it. *)
    Boundary.drop_capture r.probe;
    if (Fsck.run ~disk:(World.disk w)).Fsck.unrecoverable then []
    else
      match World.cold_reboot w with
      | fs -> ( try check fs with Fs_types.Fs_error m -> [ "cold recovery check raised: " ^ m ])
      | exception Fs_types.Fs_error _ -> []
  end
  else begin
    Boundary.restore_crash_image r.probe;
    let _, fs = World.warm_reboot w in
    try check fs with Fs_types.Fs_error m -> [ "recovery check raised: " ^ m ]
  end
