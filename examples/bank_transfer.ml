(* "We plan to ... perform a similar fault-injection experiment on a
   database system" (paper, conclusions). The authors' follow-up was Rio
   Vista: transactions whose only machinery is a tiny undo log, because Rio
   already made every memory write permanent.

   This example runs a bank on Vista: transfers between accounts are
   transactions; the OS crashes in the middle of one (after the debit,
   before the credit); the warm reboot plus Vista's recovery puts every
   cent back.

   Run with: dune exec examples/bank_transfer.exe *)

module Fs = Rio_fs.Fs
module World = Rio_world.World
module Vista = Rio_txn.Vista

let say fmt = Printf.printf (fmt ^^ "\n%!")

let accounts = [| "alice"; "bob"; "carol"; "dave" |]

let slot i = i * 8

let balance store i =
  Int64.to_int (Bytes.get_int64_le (Vista.read store ~offset:(slot i) ~len:8) 0)

let set_balance txn i v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Vista.write txn ~offset:(slot i) b

let print_balances store =
  Array.iteri (fun i name -> say "   %-6s: %4d" name (balance store i)) accounts;
  let total = Array.mapi (fun i _ -> balance store i) accounts |> Array.fold_left ( + ) 0 in
  say "   %-6s: %4d" "TOTAL" total

let () =
  say "== A bank on Vista: free transactions over the Rio file cache ==";
  let world = World.create ~seed:7 () in
  let fs = World.fs world in
  let store = Vista.create fs ~path:"/bank" ~size:4096 in

  say "";
  say "1. Fund the accounts (one committed transaction).";
  let t = Vista.begin_txn store in
  Array.iteri (fun i _ -> set_balance t i 250) accounts;
  Vista.commit t;
  print_balances store;

  say "";
  say "2. A normal transfer: alice -> bob, 100.";
  let t = Vista.begin_txn store in
  set_balance t 0 (balance store 0 - 100);
  set_balance t 1 (balance store 1 + 100);
  Vista.commit t;
  print_balances store;

  say "";
  say "3. Another transfer: carol -> dave, 200... but the OS crashes right";
  say "   after the debit, before the credit. No commit, no sync, nothing.";
  let t = Vista.begin_txn store in
  set_balance t 2 (balance store 2 - 200);
  (* --- CRASH --- *)
  Fs.crash fs;
  say "   (crash!)";

  say "";
  say "4. Warm reboot, then Vista recovery rolls the half-done transfer back.";
  let _, fs2 = World.warm_reboot world in
  let rolled = Vista.recover fs2 ~path:"/bank" in
  say "   -> %d undo record(s) applied" rolled;
  let store2 = Vista.open_existing fs2 ~path:"/bank" in
  print_balances store2;

  say "";
  say "Every committed transfer survived; the interrupted one vanished";
  say "atomically. Notice what was NOT needed: no fsync, no redo log, no";
  say "group commit — Rio's memory already was the stable store. That is";
  say "\"free transactions\" (Rio Vista, SOSP 1997)."
