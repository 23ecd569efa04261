type slot = { mutable vpn : int } (* -1 = empty *)

type t = {
  slots : slot array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Tlb.create: entries must be a positive power of two";
  {
    slots = Array.init entries (fun _ -> { vpn = -1 });
    mask = entries - 1;
    hits = 0;
    misses = 0;
    shootdowns = 0;
  }

let access t ~vpn =
  let slot = t.slots.(vpn land t.mask) in
  if slot.vpn = vpn then t.hits <- t.hits + 1
  else begin
    t.misses <- t.misses + 1;
    slot.vpn <- vpn
  end

let shootdown t ~vpn =
  let slot = t.slots.(vpn land t.mask) in
  if slot.vpn = vpn then begin
    slot.vpn <- -1;
    t.shootdowns <- t.shootdowns + 1
  end

let flush t = Array.iter (fun s -> s.vpn <- -1) t.slots

let hits t = t.hits
let misses t = t.misses
let shootdowns t = t.shootdowns

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.shootdowns <- 0

(* ---- world-template rewind ---- *)

type checkpoint = {
  ck_vpns : int array;
  ck_hits : int;
  ck_misses : int;
  ck_shootdowns : int;
}

let checkpoint t =
  { ck_vpns = Array.map (fun s -> s.vpn) t.slots;
    ck_hits = t.hits; ck_misses = t.misses; ck_shootdowns = t.shootdowns }

let restore t ck =
  Array.iteri (fun i s -> s.vpn <- ck.ck_vpns.(i)) t.slots;
  t.hits <- ck.ck_hits;
  t.misses <- ck.ck_misses;
  t.shootdowns <- ck.ck_shootdowns
