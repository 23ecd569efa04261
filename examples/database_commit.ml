(* The intro's motivating application: transaction processing. A commit is
   durable only when its data is permanent, so commit latency is governed
   by the storage system's write-permanence guarantee.

   A tiny write-ahead-logging "database" runs the same debit/credit-style
   transaction stream on three storage configurations:

   - UFS with fsync per commit (the classic safe setup),
   - UFS-delayed with NO fsync (fast but a crash loses ~30s of commits),
   - Rio (fsync-free AND durable: every write is instantly permanent).

   Run with: dune exec examples/database_commit.exe *)

module Engine = Rio_sim.Engine
module Fs = Rio_fs.Fs
module World = Rio_world.World
module Prng = Rio_util.Prng

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* One account table of fixed-size records plus an append-only commit log. *)
let record_bytes = 128
let accounts = 512

type db = {
  fs : Fs.t;
  table : Fs.fd;
  log : Fs.fd;
  mutable log_pos : int;
  fsync_on_commit : bool;
}

let open_db fs ~fsync_on_commit =
  let table = Fs.create fs "/db/accounts" in
  Fs.pwrite fs table ~offset:((accounts * record_bytes) - 1) (Bytes.of_string "\000");
  let log = Fs.create fs "/db/log" in
  { fs; table; log; log_pos = 0; fsync_on_commit }

(* A transaction: read two accounts, write them back updated, append a log
   record, and make it durable per the configured discipline. *)
let transaction db prng =
  let a = Prng.int prng accounts and b = Prng.int prng accounts in
  let ra = Fs.pread db.fs db.table ~offset:(a * record_bytes) ~len:record_bytes in
  let _rb = Fs.pread db.fs db.table ~offset:(b * record_bytes) ~len:record_bytes in
  Bytes.set ra 0 (Char.chr ((Char.code (Bytes.get ra 0) + 1) land 0xFF));
  Fs.pwrite db.fs db.table ~offset:(a * record_bytes) ra;
  Fs.pwrite db.fs db.table ~offset:(b * record_bytes) ra;
  let record = Bytes.make 64 'L' in
  Fs.pwrite db.fs db.log ~offset:db.log_pos record;
  db.log_pos <- db.log_pos + Bytes.length record;
  if db.fsync_on_commit then begin
    Fs.fsync db.fs db.log;
    Fs.fsync db.fs db.table
  end

let run_config label ~policy ~rio ~fsync_on_commit ~transactions =
  let world = World.create ~rio ~policy ~seed:17 () in
  let engine = World.engine world and fs = World.fs world in
  Fs.mkdir fs "/db";
  let db = open_db fs ~fsync_on_commit in
  let prng = Prng.create ~seed:99 in
  let t0 = Engine.now engine in
  for _ = 1 to transactions do
    transaction db prng
  done;
  let elapsed = Engine.now engine - t0 in
  let per_txn = float_of_int elapsed /. float_of_int transactions in
  let tps = 1e6 /. per_txn in
  say "  %-34s %8.2f ms/commit  %8.0f tps   %s" label (per_txn /. 1e3) tps
    (if fsync_on_commit || rio then "durable per commit"
     else "loses up to 30s on a crash")

let () =
  say "== Transaction commit latency by storage discipline ==";
  say "";
  let n = 400 in
  say "%d debit/credit transactions (2 record updates + 1 log append each):" n;
  say "";
  run_config "UFS + fsync per commit" ~policy:Fs.Ufs_default ~rio:false ~fsync_on_commit:true
    ~transactions:n;
  run_config "UFS-delayed, no fsync (unsafe)" ~policy:Fs.Ufs_delayed ~rio:false
    ~fsync_on_commit:false ~transactions:n;
  run_config "Rio, no fsync (still durable!)" ~policy:Fs.Rio_policy ~rio:true
    ~fsync_on_commit:false ~transactions:n;
  say "";
  say "Rio gives the unsafe configuration's throughput with the fsync";
  say "configuration's guarantee: \"fast, synchronous writes improve";
  say "performance by an order of magnitude for applications that require";
  say "synchronous semantics\" (paper, conclusions)."
