module Engine = Rio_sim.Engine
module Kernel = Rio_kernel.Kernel
module Kcrash = Rio_kernel.Kcrash
module World = Rio_world.World
module Vista = Rio_txn.Vista
module Injector = Rio_fault.Injector
module Fault_type = Rio_fault.Fault_type
module Prng = Rio_util.Prng

type outcome = {
  discarded : bool;
  crashed_during_txn : bool;
  transfers_committed : int;
  undo_records_recovered : int;
  total_expected : int;
  total_found : int;
  atomic : bool;
}

type summary = {
  crashes : int;
  attempts : int;
  violations : int;
  recovered_transactions : int;
}

let accounts = 16
let funding = 10_000
let slot i = i * 8

let balance store i =
  Int64.to_int (Bytes.get_int64_le (Vista.read store ~offset:(slot i) ~len:8) 0)

let set_balance txn i v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Vista.write txn ~offset:(slot i) b

let total store =
  let sum = ref 0 in
  for i = 0 to accounts - 1 do
    sum := !sum + balance store i
  done;
  !sum

let run_one fault ~protection ~seed =
  let w = World.create ~protection ~seed () in
  let engine = World.engine w and kernel = World.kernel w and fs = World.fs w in
  let store = Vista.create fs ~path:"/ledger" ~size:4096 in
  (* Fund the bank in one committed transaction. *)
  let t0 = Vista.begin_txn store in
  set_balance t0 0 funding;
  Vista.commit t0;
  let prng = Prng.create ~seed:(seed lxor 0xAC1D) in
  let committed = ref 0 in
  let in_txn = ref false in
  (* One banking step: a transfer transaction plus kernel activity. *)
  let step () =
    let t = Vista.begin_txn store in
    in_txn := true;
    let a = Prng.int prng accounts and b = Prng.int prng accounts in
    let amount = 1 + Prng.int prng 20 in
    set_balance t a (balance store a - amount);
    Kernel.run_activity kernel;
    set_balance t b (balance store b + amount);
    Vista.commit t;
    in_txn := false;
    incr committed;
    Kernel.run_activity kernel
  in
  let crash = ref None in
  (try
     for _ = 1 to 40 do
       step ()
     done;
     Injector.inject_many kernel ~prng:(Prng.create ~seed:(seed lxor 0xFA17)) fault ~count:20;
     for _ = 1 to 400 do
       step ()
     done
   with
  | Kcrash.Crashed info -> crash := Some info
  | Rio_fs.Fs_types.Fs_error msg ->
    crash :=
      Some { Kcrash.cause = Kcrash.Panic msg; during = "database"; at_us = Engine.now engine });
  match !crash with
  | None ->
    {
      discarded = true;
      crashed_during_txn = false;
      transfers_committed = !committed;
      undo_records_recovered = 0;
      total_expected = funding;
      total_found = funding;
      atomic = true;
    }
  | Some info ->
    Kernel.crash_system kernel info;
    let _, fs2 = World.warm_reboot w in
    (match Vista.recover fs2 ~path:"/ledger" with
    | rolled ->
      let store2 = Vista.open_existing fs2 ~path:"/ledger" in
      let found = total store2 in
      {
        discarded = false;
        crashed_during_txn = !in_txn;
        transfers_committed = !committed;
        undo_records_recovered = rolled;
        total_expected = funding;
        total_found = found;
        atomic = found = funding;
      }
    | exception Rio_fs.Fs_types.Fs_error _ ->
      (* Recovery itself failed (e.g. the ledger file was destroyed):
         definitely not atomic. *)
      {
        discarded = false;
        crashed_during_txn = !in_txn;
        transfers_committed = !committed;
        undo_records_recovered = 0;
        total_expected = funding;
        total_found = -1;
        atomic = false;
      })

let run ?(fault = Fault_type.Copy_overrun) ~protection (cfg : Run.config) =
  let crashes = cfg.Run.trials in
  let seed_base = cfg.Run.seed in
  let done_ = ref 0
  and attempts = ref 0
  and violations = ref 0
  and recovered = ref 0 in
  while !done_ < crashes && !attempts < crashes * 30 do
    incr attempts;
    let o = run_one fault ~protection ~seed:(seed_base + !attempts) in
    if not o.discarded then begin
      incr done_;
      if not o.atomic then incr violations;
      if o.undo_records_recovered > 0 then incr recovered
    end
  done;
  { crashes = !done_; attempts = !attempts; violations = !violations;
    recovered_transactions = !recovered }

let summary_table rows =
  let t =
    Rio_util.Table.create
      ~columns:
        [
          ("Fault / system", Rio_util.Table.Left);
          ("Crashes", Rio_util.Table.Right);
          ("Rolled-back txns", Rio_util.Table.Right);
          ("Ledger violations", Rio_util.Table.Right);
        ]
  in
  List.iter
    (fun (label, (s : summary)) ->
      Rio_util.Table.add_row t
        [
          label;
          string_of_int s.crashes;
          string_of_int s.recovered_transactions;
          string_of_int s.violations;
        ])
    rows;
  t
