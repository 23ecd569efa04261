module Fs = Rio_fs.Fs
module Engine = Rio_sim.Engine

type op =
  | Mkdir of string
  | Open_write of string
  | Open_read of string
  | Write_chunk of { seed : int; offset : int; len : int }
  | Read_chunk of int
  | Close
  | Fsync
  | Unlink of string
  | Rmdir of string
  | Stat of string
  | Rename of string * string
  | Read_whole of string
  | Cpu of int

let chunk_size = 8192

let write_file_ops path ~seed ~len =
  let rec chunks offset acc =
    if offset >= len then List.rev acc
    else begin
      let n = min chunk_size (len - offset) in
      chunks (offset + n) (Write_chunk { seed; offset; len = n } :: acc)
    end
  in
  (Open_write path :: chunks 0 []) @ [ Close ]

type runner = {
  ops : op array;
  mutable next : int;
  mutable fd : Fs.fd option;
  chunk : bytes;  (** Where each full chunk is generated before its write. *)
}

let runner ops =
  { ops = Array.of_list ops; next = 0; fd = None; chunk = Bytes.create chunk_size }

let finished r = r.next >= Array.length r.ops

let ops_total r = Array.length r.ops

let current_fd r =
  match r.fd with
  | Some fd -> fd
  | None -> Rio_fs.Fs_types.err "script: no open file"

(* Script steps decode to the uniform syscall representation: one
   dispatch point shared with the checker, fuzzer, and task scheduler. *)
let exec r fs op =
  let sys call = Fs.Syscall.run fs call in
  match op with
  | Mkdir path -> ignore (sys (Fs.Syscall.Mkdir path))
  | Open_write path -> r.fd <- Some (Fs.Syscall.fd_exn (sys (Fs.Syscall.Creat path)))
  | Open_read path -> r.fd <- Some (Fs.Syscall.fd_exn (sys (Fs.Syscall.Open path)))
  | Write_chunk { seed; offset; len } ->
    (* The bytes exist only for the write: [Fs] copies them into the
       cache and keeps no reference, so a full chunk reuses the runner's
       buffer. A short (last) chunk needs a buffer of exactly its length:
       the write's length is the buffer's, and the kernel's bcopy-overrun
       fault reads the source past the chunk's end. *)
    let data = if len = chunk_size then r.chunk else Bytes.create len in
    Rio_util.Pattern.fill_into ~seed ~offset data ~pos:0 ~len;
    ignore (sys (Fs.Syscall.Write { fd = current_fd r; data }))
  | Read_chunk len -> ignore (sys (Fs.Syscall.Read { fd = current_fd r; len }))
  | Close ->
    ignore (sys (Fs.Syscall.Close (current_fd r)));
    r.fd <- None
  | Fsync -> ignore (sys (Fs.Syscall.Fsync (current_fd r)))
  | Unlink path -> ignore (sys (Fs.Syscall.Unlink path))
  | Rmdir path -> ignore (sys (Fs.Syscall.Rmdir path))
  | Stat path -> ignore (sys (Fs.Syscall.Stat path))
  | Rename (src, dst) -> ignore (sys (Fs.Syscall.Rename { src; dst }))
  | Read_whole path -> ignore (sys (Fs.Syscall.Read_file path))
  | Cpu us -> Engine.advance_by (Fs.engine fs) us

let step r fs =
  if finished r then false
  else begin
    let op = r.ops.(r.next) in
    r.next <- r.next + 1;
    exec r fs op;
    true
  end

let run_all r fs = while step r fs do () done

let interleave_with runners fs ~every callback =
  let count = ref 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iter
      (fun r ->
        if step r fs then begin
          progressed := true;
          incr count;
          if !count mod every = 0 then callback ()
        end)
      runners
  done

let interleave runners fs = interleave_with runners fs ~every:max_int (fun () -> ())

type stats = {
  operations : int;
  opens_write : int;
  opens_read : int;
  bytes_written : int;
  bytes_read_chunked : int;
  whole_file_reads : int;
  mkdirs : int;
  unlinks : int;
  rmdirs : int;
  stats_calls : int;
  renames : int;
  fsyncs : int;
  cpu_us : int;
}

let describe ops =
  List.fold_left
    (fun acc op ->
      let acc = { acc with operations = acc.operations + 1 } in
      match op with
      | Mkdir _ -> { acc with mkdirs = acc.mkdirs + 1 }
      | Open_write _ -> { acc with opens_write = acc.opens_write + 1 }
      | Open_read _ -> { acc with opens_read = acc.opens_read + 1 }
      | Write_chunk { len; _ } -> { acc with bytes_written = acc.bytes_written + len }
      | Read_chunk n -> { acc with bytes_read_chunked = acc.bytes_read_chunked + n }
      | Read_whole _ -> { acc with whole_file_reads = acc.whole_file_reads + 1 }
      | Unlink _ -> { acc with unlinks = acc.unlinks + 1 }
      | Rmdir _ -> { acc with rmdirs = acc.rmdirs + 1 }
      | Stat _ -> { acc with stats_calls = acc.stats_calls + 1 }
      | Rename (_, _) -> { acc with renames = acc.renames + 1 }
      | Fsync -> { acc with fsyncs = acc.fsyncs + 1 }
      | Cpu us -> { acc with cpu_us = acc.cpu_us + us }
      | Close -> acc)
    {
      operations = 0;
      opens_write = 0;
      opens_read = 0;
      bytes_written = 0;
      bytes_read_chunked = 0;
      whole_file_reads = 0;
      mkdirs = 0;
      unlinks = 0;
      rmdirs = 0;
      stats_calls = 0;
      renames = 0;
      fsyncs = 0;
      cpu_us = 0;
    }
    ops

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>%d ops: %d creates, %d opens, %a written, %d whole-file reads,@ %d mkdir, %d unlink, %d rmdir, %d stat, %d rename, %a CPU@]"
    s.operations s.opens_write s.opens_read Rio_util.Units.pp_bytes s.bytes_written
    s.whole_file_reads s.mkdirs s.unlinks s.rmdirs s.stats_calls s.renames
    Rio_util.Units.pp_usec s.cpu_us

(* ---------------- random program generation ---------------- *)

module Gen = struct
  module Prng = Rio_util.Prng
  module Pattern = Rio_util.Pattern

  type op =
    | Creat of { path : string; seed : int; len : int }
    | Append of { path : string; seed : int; len : int }
    | Overwrite of { path : string; offset : int; seed : int; len : int }
    | Mkdir of string
    | Unlink of string
    | Rename of { src : string; dst : string }
    | Vista_txn of { seed : int }
    | Sync

  type spec = { root : string; max_len : int; max_dirs : int; vista : bool; sync : bool }

  let default_spec ~root = { root; max_len = 6000; max_dirs = 4; vista = true; sync = false }

  let kind = function
    | Creat _ -> "creat"
    | Append _ -> "append"
    | Overwrite _ -> "overwrite"
    | Mkdir _ -> "mkdir"
    | Unlink _ -> "unlink"
    | Rename _ -> "rename"
    | Vista_txn _ -> "vista-txn"
    | Sync -> "sync"

  let describe = function
    | Creat { path; seed; len } -> Printf.sprintf "creat %s (%d B, seed %#x)" path len seed
    | Append { path; seed; len } -> Printf.sprintf "append %s (+%d B, seed %#x)" path len seed
    | Overwrite { path; offset; seed; len } ->
      Printf.sprintf "overwrite %s [%d,%d) (seed %#x)" path offset (offset + len) seed
    | Mkdir path -> "mkdir " ^ path
    | Unlink path -> "unlink " ^ path
    | Rename { src; dst } -> Printf.sprintf "rename %s -> %s" src dst
    | Vista_txn { seed } -> Printf.sprintf "vista-txn (seed %#x)" seed
    | Sync -> "sync"

  (* Generation walks the same growing tree the program will build, so
     every emitted op is valid when executed in order from an empty root:
     creat/rename targets are fresh names, append/overwrite/unlink/rename
     sources exist, mkdir parents exist. *)
  let generate ~prng spec ~ops =
    let dirs = ref [ spec.root ] in
    let files = ref [] (* (path, current length), newest first *) in
    let next_file = ref 0 and next_dir = ref 0 in
    let fresh_file_name () =
      let n = !next_file in
      incr next_file;
      Printf.sprintf "f%d" n
    in
    let pick xs = List.nth xs (Prng.int prng (List.length xs)) in
    let seed () = Prng.int prng 0x1000000 in
    let gen_one () =
      let writable = List.filter (fun (_, len) -> len > 0) !files in
      let cands =
        [ (`Creat, 3.0) ]
        @ (if !files <> [] then [ (`Append, 1.5); (`Unlink, 1.0); (`Rename, 1.0) ] else [])
        @ (if writable <> [] then [ (`Overwrite, 1.5) ] else [])
        @ (if List.length !dirs < spec.max_dirs then [ (`Mkdir, 1.0) ] else [])
        @ (if spec.vista then [ (`Vista, 0.8) ] else [])
        @ if spec.sync && !files <> [] then [ (`Sync, 1.5) ] else []
      in
      match Prng.choose_weighted prng (Array.of_list cands) with
      | `Creat ->
        let path = Filename.concat (pick !dirs) (fresh_file_name ()) in
        let len = 1 + Prng.int prng spec.max_len in
        files := (path, len) :: !files;
        Creat { path; seed = seed (); len }
      | `Append ->
        let path, old_len = pick !files in
        let len = 1 + Prng.int prng spec.max_len in
        files := (path, old_len + len) :: List.remove_assoc path !files;
        Append { path; seed = seed (); len }
      | `Overwrite ->
        let path, flen = pick writable in
        let offset = Prng.int prng flen in
        let len = 1 + Prng.int prng (flen - offset) in
        Overwrite { path; offset; seed = seed (); len }
      | `Mkdir ->
        let path = Filename.concat (pick !dirs) (Printf.sprintf "d%d" !next_dir) in
        incr next_dir;
        dirs := !dirs @ [ path ];
        Mkdir path
      | `Unlink ->
        let path, _ = pick !files in
        files := List.remove_assoc path !files;
        Unlink path
      | `Rename ->
        let src, len = pick !files in
        let dst = Filename.concat (pick !dirs) (fresh_file_name ()) in
        files := (dst, len) :: List.remove_assoc src !files;
        Rename { src; dst }
      | `Vista -> Vista_txn { seed = seed () }
      | `Sync -> Sync
    in
    List.init ops (fun _ -> gen_one ())

  (* A multi-task program: one independent op list per task, each over
     its own subtree ([spec_of i] names disjoint roots), sized and
     seeded by draws from the master prng. Disjoint subtrees keep every
     task's expected state exact under any interleaving — the sharing
     under test is the cache/registry/shadow machinery underneath the
     namespace, not the namespace itself. *)
  let generate_tasks ~prng ~spec_of ~ops_per_task tasks =
    List.init tasks (fun i ->
        let sub_seed = Prng.int prng 0x40000000 in
        let n = 1 + Prng.int prng ops_per_task in
        generate ~prng:(Prng.create ~seed:sub_seed) (spec_of i) ~ops:n)

  (* The reference model: expected post-state of a program prefix. Raises
     [Not_found] when the prefix is not self-contained (an op uses a file a
     removed op would have created) — the shrinker treats that as an
     invalid candidate. *)
  module Model = struct
    type t = {
      files : (string, bytes) Hashtbl.t;
      mutable dirs : string list;
      mutable vista : int option;  (** Seed of the last committed transaction. *)
    }

    let create ~root = { files = Hashtbl.create 16; dirs = [ root ]; vista = None }

    let copy t = { files = Hashtbl.copy t.files; dirs = t.dirs; vista = t.vista }

    let find t path =
      match Hashtbl.find_opt t.files path with Some b -> b | None -> raise Not_found

    let apply t = function
      | Creat { path; seed; len } -> Hashtbl.replace t.files path (Pattern.fill ~seed ~len)
      | Append { path; seed; len } ->
        Hashtbl.replace t.files path (Bytes.cat (find t path) (Pattern.fill ~seed ~len))
      | Overwrite { path; offset; seed; len } ->
        let b = Bytes.copy (find t path) in
        Bytes.blit (Pattern.fill ~seed ~len) 0 b offset len;
        Hashtbl.replace t.files path b
      | Mkdir path -> t.dirs <- t.dirs @ [ path ]
      | Unlink path ->
        if not (Hashtbl.mem t.files path) then raise Not_found;
        Hashtbl.remove t.files path
      | Rename { src; dst } ->
        let b = find t src in
        Hashtbl.remove t.files src;
        Hashtbl.replace t.files dst b
      | Vista_txn { seed } -> t.vista <- Some seed
      | Sync -> ()

    let after ~root ops =
      let t = create ~root in
      List.iter (apply t) ops;
      t

    let sorted_files t =
      List.sort compare (Hashtbl.fold (fun path b acc -> (path, b) :: acc) t.files [])
  end
end
