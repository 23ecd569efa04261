(* One flag byte per page; the mapping itself is the identity, so the
   frame number is the index and needs no storage. *)
type t = { flags : Bytes.t }

let valid_bit = 1
let writable_bit = 2

let create ~pages = { flags = Bytes.make pages (Char.chr (valid_bit lor writable_bit)) }

let pages t = Bytes.length t.flags

let flags t = t.flags

let in_range t vpn = vpn >= 0 && vpn < Bytes.length t.flags

let update t ~vpn bit on fn =
  if not (in_range t vpn) then invalid_arg ("Page_table." ^ fn ^ ": vpn out of range");
  let f = Char.code (Bytes.unsafe_get t.flags vpn) in
  Bytes.unsafe_set t.flags vpn (Char.unsafe_chr (if on then f lor bit else f land lnot bit))

let set_valid t ~vpn v = update t ~vpn valid_bit v "set_valid"

let set_writable t ~vpn w = update t ~vpn writable_bit w "set_writable"

let is_valid t ~vpn = in_range t vpn && Char.code (Bytes.get t.flags vpn) land valid_bit <> 0

let is_writable t ~vpn =
  let both = valid_bit lor writable_bit in
  in_range t vpn && Char.code (Bytes.get t.flags vpn) land both = both

let protected_count t =
  let n = ref 0 in
  Bytes.iter
    (fun c -> if Char.code c land (valid_bit lor writable_bit) = valid_bit then incr n)
    t.flags;
  !n
