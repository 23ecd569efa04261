let mix seed i =
  let x = (seed * 0x9E3779B1) lxor (i * 0x85EBCA77) in
  let x = x lxor (x lsr 13) in
  let x = x * 0xC2B2AE35 in
  (x lsr 7) land 0xFF

let byte_at ~seed i = Char.unsafe_chr (mix seed i)

(* The kernel every slice goes through, so it sets the cost of every byte
   a workload writes. Same arithmetic as [mix], with the per-byte multiply
   by 0x85EBCA77 strength-reduced to a running sum (equal modulo OCaml's
   native int width, so the bytes are identical); the mix is spelled out
   in the loop body because a call per byte costs more than the mix. *)
let fill_into ~seed ~offset b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Pattern.fill_into";
  let s = seed * 0x9E3779B1 in
  let k = 0x85EBCA77 in
  let ik = ref (offset * k) in
  for i = pos to pos + len - 1 do
    let x = s lxor !ik in
    let x = x lxor (x lsr 13) in
    let x = x * 0xC2B2AE35 in
    Bytes.unsafe_set b i (Char.unsafe_chr ((x lsr 7) land 0xFF));
    ik := !ik + k
  done

(* Pattern slices are pure functions of (seed, offset, len), and the
   campaign materializes each one several times — once for the live file
   system, once for the model, and again when the model is replayed after
   the crash — so a per-domain memo pays for itself. Cached buffers stay
   pristine; every caller gets a private copy it is free to mutate. *)
let memo_cap_bytes = 8 * 1024 * 1024

let memo_key =
  Domain.DLS.new_key (fun () ->
      ((Hashtbl.create 64 : (int * int * int, bytes) Hashtbl.t), ref 0))

let fill_at ~seed ~offset ~len =
  let tbl, cached = Domain.DLS.get memo_key in
  let key = (seed, offset, len) in
  match Hashtbl.find_opt tbl key with
  | Some b -> Bytes.copy b
  | None ->
    let b = Bytes.create len in
    fill_into ~seed ~offset b ~pos:0 ~len;
    if !cached + len > memo_cap_bytes then begin
      Hashtbl.reset tbl;
      cached := 0
    end;
    Hashtbl.add tbl key (Bytes.copy b);
    cached := !cached + len;
    b

let fill ~seed ~len = fill_at ~seed ~offset:0 ~len
