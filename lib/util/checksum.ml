(* Slicing-by-16: table k (1-15) holds the CRC of byte n followed by k
   zero bytes, so sixteen bytes fold into the accumulator per iteration —
   two independent 8-byte halves keep the load-xor chains short. Values
   are identical to the classic one-byte-at-a-time loop (table 0), which
   still handles the unaligned tail. Built eagerly at module
   initialization: a top-level [lazy] forced by two worker domains at once
   raises [CamlinternalLazy.Undefined] in OCaml 5. *)
let crc_tables =
  let t = Array.make_matrix 16 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  for n = 0 to 255 do
    let c = ref t.(0).(n) in
    for k = 1 to 15 do
      c := t.(0).(!c land 0xFF) lxor (!c lsr 8);
      t.(k).(n) <- !c
    done
  done;
  t

(* The 16-byte folding step shared by [crc32] and [crc32_raw]: feed the
   register [c] and the block at [i] through the sliced tables. All reads
   are 32-bit little-endian so everything stays inside OCaml's immediate
   int range; the register always fits in 32 bits. *)
let[@inline] fold16 t c b i =
  let w0 = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFF_FFFF lxor c in
  let w1 = Int32.to_int (Bytes.get_int32_le b (i + 4)) land 0xFFFF_FFFF in
  let w2 = Int32.to_int (Bytes.get_int32_le b (i + 8)) land 0xFFFF_FFFF in
  let w3 = Int32.to_int (Bytes.get_int32_le b (i + 12)) land 0xFFFF_FFFF in
  Array.unsafe_get (Array.unsafe_get t 15) (w0 land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 14) ((w0 lsr 8) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 13) ((w0 lsr 16) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 12) ((w0 lsr 24) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 11) (w1 land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 10) ((w1 lsr 8) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 9) ((w1 lsr 16) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 8) ((w1 lsr 24) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 7) (w2 land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 6) ((w2 lsr 8) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 5) ((w2 lsr 16) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 4) ((w2 lsr 24) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 3) (w3 land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 2) ((w3 lsr 8) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 1) ((w3 lsr 16) land 0xFF)
  lxor Array.unsafe_get (Array.unsafe_get t 0) ((w3 lsr 24) land 0xFF)

let crc32 ?(init = 0) b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = crc_tables in
  let t0 = t.(0) in
  let c = ref (init lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last = pos + len in
  while last - !i >= 16 do
    c := fold16 t !c b !i;
    i := !i + 16
  done;
  while !i < last do
    c := Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let crc32_string s =
  let b = Bytes.unsafe_of_string s in
  crc32 b ~pos:0 ~len:(Bytes.length b)

(* ---- incremental support ----

   The CRC register is a linear function (over GF(2)) of the initial
   register and the message bits.  Two consequences used by
   [Phys_mem]'s incremental checksum maintenance:

     crc(M')  =  crc(M)  xor  shift (raw D) (trailing zero bytes)

   where M and M' differ only in a range whose old-xor-new bytes are D:
   the init/xorout constants cancel in the difference, leading zero
   bytes fix the register at 0, and the trailing zero bytes are a
   linear operator applied with the matrix trick below. *)

(* Raw register: process [len] bytes starting from register 0, no
   init / final xor.  Same tables and folding as [crc32]. *)
let crc32_raw b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref 0 in
  let i = ref pos in
  let last = pos + len in
  while last - !i >= 8 do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFF_FFFF lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFF_FFFF in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((hi lsr 24) land 0xFF);
    i := !i + 8
  done;
  while !i < last do
    c := Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let apply_mat m c =
  let r = ref 0 and c = ref c and i = ref 0 in
  while !c <> 0 do
    if !c land 1 = 1 then r := !r lxor Array.unsafe_get m !i;
    incr i;
    c := !c lsr 1
  done;
  !r

(* mats.(k).(i): the register after feeding 2^k zero bytes starting from
   register [1 lsl i] — the linear operator as its images of the basis.
   Eager for the same reason as [crc_tables]. *)
let zero_mats =
  let t0 = crc_tables.(0) in
  let mats = Array.make 26 [||] in
  mats.(0) <-
    Array.init 32 (fun i ->
        let c = 1 lsl i in
        t0.(c land 0xFF) lxor (c lsr 8));
  for k = 1 to 25 do
    let prev = mats.(k - 1) in
    mats.(k) <- Array.init 32 (fun i -> apply_mat prev prev.(i))
  done;
  mats

(* The register after feeding [zeros] zero bytes starting from register
   [c] (square-and-multiply over the per-power-of-two operators). *)
let shift_zeros c ~zeros =
  assert (zeros >= 0);
  if c = 0 || zeros = 0 then c
  else begin
    let mats = zero_mats in
    let c = ref c and z = ref zeros and k = ref 0 in
    while !z <> 0 && !c <> 0 do
      if !z land 1 = 1 then c := apply_mat mats.(!k) !c;
      incr k;
      z := !z lsr 1
    done;
    !c
  end

let fletcher32 b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let sum1 = ref 0xFFFF and sum2 = ref 0xFFFF in
  for i = pos to pos + len - 1 do
    sum1 := !sum1 + Char.code (Bytes.unsafe_get b i);
    sum2 := !sum2 + !sum1;
    if !sum1 >= 65535 then sum1 := !sum1 - 65535;
    if !sum2 >= 65535 then sum2 := !sum2 - 65535
  done;
  (!sum2 lsl 16) lor !sum1

type algorithm = Crc32 | Fletcher32

let compute algo b ~pos ~len =
  match algo with
  | Crc32 -> crc32 b ~pos ~len
  | Fletcher32 -> fletcher32 b ~pos ~len

let algorithm_name = function Crc32 -> "crc32" | Fletcher32 -> "fletcher32"
