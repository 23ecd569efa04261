let block_bytes = 8192
let sectors_per_block = block_bytes / 512
let ndirect = 96
let name_max = 60
let root_ino = 1

type ftype = Regular | Directory | Symlink

type fid = {
  dev : int;
  ino : int;
}

type owner =
  | Meta
  | Data of { ino : int; offset : int }

exception Fs_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Fs_error s)) fmt

