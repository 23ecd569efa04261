let sector_bytes = 512

type t = {
  sectors : int;
  tbl : (int, bytes) Hashtbl.t;
  nonzero : Bytes.t;
      (* Bit per sector, exact: set iff [tbl] holds an entry for the
         sector, and entries only ever hold non-zero contents. *)
}

let create ~sectors =
  {
    sectors;
    tbl = Hashtbl.create 4096;
    nonzero = Bytes.make ((sectors + 7) / 8) '\000';
  }

let capacity t = t.sectors

let entries t = Hashtbl.length t.tbl

let mark_nonzero t sector =
  let i = sector lsr 3 in
  Bytes.unsafe_set t.nonzero i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.nonzero i) lor (1 lsl (sector land 7))))

let clear_nonzero t sector =
  let i = sector lsr 3 in
  Bytes.unsafe_set t.nonzero i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.nonzero i) land lnot (1 lsl (sector land 7))))

let bit_set t sector =
  Char.code (Bytes.unsafe_get t.nonzero (sector lsr 3)) land (1 lsl (sector land 7)) <> 0

let sector_is_zero src pos =
  let i = ref pos and last = pos + sector_bytes in
  while !i < last && Bytes.get_int64_le src !i = 0L do
    i := !i + 8
  done;
  !i >= last

let peek t ~sector =
  match Hashtbl.find_opt t.tbl sector with
  | Some b -> Bytes.copy b
  | None -> Bytes.make sector_bytes '\000'

let blit_to t ~sector dst ~pos =
  match Hashtbl.find_opt t.tbl sector with
  | Some b -> Bytes.blit b 0 dst pos sector_bytes
  | None -> Bytes.fill dst pos sector_bytes '\000'

(* Absent sectors read as zeros, so an all-zero commit needs no entry —
   this keeps the 16 MB swap dump from materializing a store entry per
   untouched memory page — and an all-zero commit over an existing entry
   must drop it, or the bitmap bit goes stale. *)
let commit_from t ~sector src ~pos =
  if sector_is_zero src pos then begin
    if bit_set t sector then begin
      Hashtbl.remove t.tbl sector;
      clear_nonzero t sector
    end
  end
  else if bit_set t sector then Bytes.blit src pos (Hashtbl.find t.tbl sector) 0 sector_bytes
  else begin
    let b = Bytes.create sector_bytes in
    Bytes.blit src pos b 0 sector_bytes;
    Hashtbl.replace t.tbl sector b;
    mark_nonzero t sector
  end

let commit_zeros t ~sector ~count =
  let last = sector + count - 1 in
  for i = sector lsr 3 to last lsr 3 do
    let byte = Char.code (Bytes.unsafe_get t.nonzero i) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then begin
          let s = (i lsl 3) lor bit in
          if s >= sector && s <= last then begin
            Hashtbl.remove t.tbl s;
            clear_nonzero t s
          end
        end
      done
  done

let check_invariant t =
  (* Entry side: every entry has its bit and non-zero contents. *)
  Hashtbl.iter
    (fun s b ->
      if not (bit_set t s) then
        failwith (Printf.sprintf "Store: sector %d has an entry but no nonzero bit" s);
      if sector_is_zero b 0 then
        failwith (Printf.sprintf "Store: sector %d holds an all-zero entry" s))
    t.tbl;
  (* Bitmap side: every set bit has an entry. *)
  for i = 0 to Bytes.length t.nonzero - 1 do
    let byte = Char.code (Bytes.unsafe_get t.nonzero i) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then begin
          let s = (i lsl 3) lor bit in
          if not (Hashtbl.mem t.tbl s) then
            failwith (Printf.sprintf "Store: sector %d has a nonzero bit but no entry" s)
        end
      done
  done

type state = (int, bytes) Hashtbl.t

let checkpoint t =
  let ck = Hashtbl.create (max 16 (Hashtbl.length t.tbl * 2)) in
  Hashtbl.iter (fun s b -> Hashtbl.replace ck s (Bytes.copy b)) t.tbl;
  ck

let restore t ck =
  Hashtbl.reset t.tbl;
  Bytes.fill t.nonzero 0 (Bytes.length t.nonzero) '\000';
  Hashtbl.iter
    (fun s b ->
      Hashtbl.replace t.tbl s (Bytes.copy b);
      mark_nonzero t s)
    ck
