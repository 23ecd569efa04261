(* Tests for the VM layer: page-table flags, TLB model, MMU with KSEG
   semantics and write protection — the heart of Rio's §2.1. *)

module Page_table = Rio_vm.Page_table
module Tlb = Rio_vm.Tlb
module Mmu = Rio_vm.Mmu
module Phys_mem = Rio_mem.Phys_mem

let check = Alcotest.check

let fresh_mmu () = Mmu.create ~mem_pages:64 ~tlb_entries:16 ()

(* ---------------- page table ---------------- *)

let test_page_table_defaults () =
  let pt = Page_table.create ~pages:8 in
  check Alcotest.int "pages" 8 (Page_table.pages pt);
  check Alcotest.bool "writable by default" true (Page_table.is_writable pt ~vpn:3);
  check Alcotest.int "nothing protected" 0 (Page_table.protected_count pt)

let test_page_table_protection () =
  let pt = Page_table.create ~pages:8 in
  Page_table.set_writable pt ~vpn:2 false;
  check Alcotest.bool "read-only" false (Page_table.is_writable pt ~vpn:2);
  check Alcotest.int "one protected" 1 (Page_table.protected_count pt);
  Page_table.set_valid pt ~vpn:3 false;
  check Alcotest.bool "invalid is not writable" false (Page_table.is_writable pt ~vpn:3)

let test_page_table_out_of_range () =
  let pt = Page_table.create ~pages:4 in
  check Alcotest.bool "out of range is unmapped" false (Page_table.is_valid pt ~vpn:99);
  check Alcotest.bool "negative vpn" false (Page_table.is_valid pt ~vpn:(-1));
  check Alcotest.bool "out of range is not writable" false (Page_table.is_writable pt ~vpn:4);
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Page_table.set_writable: vpn out of range") (fun () ->
      Page_table.set_writable pt ~vpn:4 false)

(* What the table answers for every page, to compare against a model. *)
let snapshot_bits pt =
  List.init (Page_table.pages pt) (fun vpn ->
      (Page_table.is_valid pt ~vpn, Page_table.is_writable pt ~vpn))

(* The record-per-PTE table the flag bytes replaced, kept as the model:
   [is_writable] is valid && writable, protected means valid && not
   writable. *)
type model_pte = { mutable m_valid : bool; mutable m_writable : bool }

let model_bits m = Array.to_list (Array.map (fun p -> (p.m_valid, p.m_valid && p.m_writable)) m)

let test_page_table_protect_round_trip () =
  let pages = 16 in
  let pt = Page_table.create ~pages in
  let model = Array.init pages (fun _ -> { m_valid = true; m_writable = true }) in
  let prng = Random.State.make [| 7 |] in
  for step = 1 to 200 do
    let vpn = Random.State.int prng pages and v = Random.State.bool prng in
    if Random.State.bool prng then begin
      Page_table.set_writable pt ~vpn v;
      model.(vpn).m_writable <- v
    end
    else begin
      Page_table.set_valid pt ~vpn v;
      model.(vpn).m_valid <- v
    end;
    check Alcotest.(list (pair bool bool)) (Printf.sprintf "step %d" step) (model_bits model)
      (snapshot_bits pt);
    check Alcotest.int "protected count"
      (Array.fold_left (fun n p -> if p.m_valid && not p.m_writable then n + 1 else n) 0 model)
      (Page_table.protected_count pt)
  done;
  (* Unprotect everything: back to the fresh table. *)
  for vpn = 0 to pages - 1 do
    Page_table.set_writable pt ~vpn true;
    Page_table.set_valid pt ~vpn true
  done;
  check Alcotest.(list (pair bool bool)) "back to fresh"
    (snapshot_bits (Page_table.create ~pages))
    (snapshot_bits pt)

(* ---------------- tlb ---------------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:1;
  Tlb.access tlb ~vpn:1;
  check Alcotest.int "one miss" 1 (Tlb.misses tlb);
  check Alcotest.int "one hit" 1 (Tlb.hits tlb)

let test_tlb_conflict () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:1;
  Tlb.access tlb ~vpn:5 (* same slot: 5 mod 4 = 1 *);
  Tlb.access tlb ~vpn:1;
  check Alcotest.int "conflict evicts" 3 (Tlb.misses tlb)

let test_tlb_shootdown () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:2;
  Tlb.shootdown tlb ~vpn:2;
  check Alcotest.int "shootdown counted" 1 (Tlb.shootdowns tlb);
  Tlb.access tlb ~vpn:2;
  check Alcotest.int "re-fill is a miss" 2 (Tlb.misses tlb)

let test_tlb_bad_size () =
  Alcotest.check_raises "power of two required"
    (Invalid_argument "Tlb.create: entries must be a positive power of two") (fun () ->
      ignore (Tlb.create ~entries:3))

(* ---------------- mmu ---------------- *)

let paddr_of = function
  | Mmu.Ok p -> p
  | Mmu.Fault f -> Alcotest.failf "unexpected fault: %a" Mmu.pp_fault f

let test_mapped_identity () =
  let mmu = fresh_mmu () in
  let va = (3 * Phys_mem.page_size) + 100 in
  check Alcotest.int "identity map" va (paddr_of (Mmu.translate mmu ~vaddr:va ~access:Mmu.Read))

let test_unmapped_fault () =
  let mmu = fresh_mmu () in
  let va = 1000 * Phys_mem.page_size in
  (match Mmu.translate mmu ~vaddr:va ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped a) -> check Alcotest.int "fault address" va a
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped fault");
  check Alcotest.int "counted" 1 (Mmu.unmapped_faults mmu)

let test_invalid_page_fault () =
  let mmu = fresh_mmu () in
  Page_table.set_valid (Mmu.page_table mmu) ~vpn:2 false;
  match Mmu.translate mmu ~vaddr:(2 * Phys_mem.page_size) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped fault"

let test_write_protection () =
  let mmu = fresh_mmu () in
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let va = 5 * Phys_mem.page_size in
  check Alcotest.int "reads still fine" va (paddr_of (Mmu.translate mmu ~vaddr:va ~access:Mmu.Read));
  (match Mmu.translate mmu ~vaddr:va ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected a) -> check Alcotest.int "trap address" va a
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "expected protection trap");
  check Alcotest.int "counted" 1 (Mmu.protection_faults mmu)

let test_kseg_bypass () =
  (* The danger the paper describes: with the ABOX bit clear, KSEG stores
     ignore page protection entirely. *)
  let mmu = fresh_mmu () in
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let pa = 5 * Phys_mem.page_size in
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Write with
  | Mmu.Ok p -> check Alcotest.int "bypasses protection" pa p
  | Mmu.Fault _ -> Alcotest.fail "KSEG must bypass when not mapped through TLB"

let test_kseg_through_tlb () =
  (* Rio's fix: the ABOX bit makes KSEG respect the PTEs. *)
  let mmu = fresh_mmu () in
  Mmu.set_kseg_through_tlb mmu true;
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let pa = 5 * Phys_mem.page_size in
  (match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected _) -> ()
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "expected protection trap");
  (* Reads still work. *)
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Read with
  | Mmu.Ok p -> check Alcotest.int "read maps" pa p
  | Mmu.Fault _ -> Alcotest.fail "reads must succeed"

let test_kseg_out_of_range () =
  let mmu = fresh_mmu () in
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr (10_000 * Phys_mem.page_size)) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped"

let test_negative_vaddr () =
  let mmu = fresh_mmu () in
  match Mmu.translate mmu ~vaddr:(-8) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped"

let test_is_kseg () =
  check Alcotest.bool "kseg addr" true (Mmu.is_kseg (Mmu.kseg_addr 0));
  check Alcotest.bool "mapped addr" false (Mmu.is_kseg 4096)

let test_checkpoint_round_trip () =
  (* Checkpoint a protected table, scramble it, restore: the flags, the
     ABOX bit and the fault counters must all come back, and translation
     must behave exactly as before the scramble. *)
  let mmu = fresh_mmu () in
  let pt = Mmu.page_table mmu in
  Mmu.set_kseg_through_tlb mmu true;
  Page_table.set_writable pt ~vpn:5 false;
  Page_table.set_valid pt ~vpn:7 false;
  ignore (Mmu.translate mmu ~vaddr:(5 * Phys_mem.page_size) ~access:Mmu.Write);
  let before = snapshot_bits pt in
  let ck = Mmu.checkpoint mmu in
  for vpn = 0 to Page_table.pages pt - 1 do
    Page_table.set_writable pt ~vpn (vpn mod 2 = 0);
    Page_table.set_valid pt ~vpn (vpn mod 3 <> 0)
  done;
  Mmu.set_kseg_through_tlb mmu false;
  ignore (Mmu.translate mmu ~vaddr:(1000 * Phys_mem.page_size) ~access:Mmu.Read);
  Mmu.restore mmu ck;
  check Alcotest.(list (pair bool bool)) "flags restored" before (snapshot_bits pt);
  check Alcotest.bool "ABOX bit restored" true (Mmu.kseg_through_tlb mmu);
  check Alcotest.int "protection faults restored" 1 (Mmu.protection_faults mmu);
  check Alcotest.int "unmapped faults restored" 0 (Mmu.unmapped_faults mmu);
  (match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr (5 * Phys_mem.page_size)) ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected _) -> ()
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "protection lost by restore");
  match Mmu.translate mmu ~vaddr:(7 * Phys_mem.page_size) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ ->
    Alcotest.fail "invalid page mapped after restore"

let test_reset_stats () =
  let mmu = fresh_mmu () in
  ignore (Mmu.translate mmu ~vaddr:(1000 * Phys_mem.page_size) ~access:Mmu.Read);
  Mmu.reset_stats mmu;
  check Alcotest.int "cleared" 0 (Mmu.unmapped_faults mmu)

let () =
  Alcotest.run "rio_vm"
    [
      ( "page_table",
        [
          Alcotest.test_case "defaults" `Quick test_page_table_defaults;
          Alcotest.test_case "protection bits" `Quick test_page_table_protection;
          Alcotest.test_case "out of range" `Quick test_page_table_out_of_range;
          Alcotest.test_case "protect/unprotect round trip" `Quick
            test_page_table_protect_round_trip;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "conflict" `Quick test_tlb_conflict;
          Alcotest.test_case "shootdown" `Quick test_tlb_shootdown;
          Alcotest.test_case "bad size" `Quick test_tlb_bad_size;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "identity mapping" `Quick test_mapped_identity;
          Alcotest.test_case "unmapped fault" `Quick test_unmapped_fault;
          Alcotest.test_case "invalid page" `Quick test_invalid_page_fault;
          Alcotest.test_case "write protection" `Quick test_write_protection;
          Alcotest.test_case "KSEG bypasses protection (ABOX off)" `Quick test_kseg_bypass;
          Alcotest.test_case "KSEG through TLB (ABOX on)" `Quick test_kseg_through_tlb;
          Alcotest.test_case "KSEG out of range" `Quick test_kseg_out_of_range;
          Alcotest.test_case "negative vaddr" `Quick test_negative_vaddr;
          Alcotest.test_case "is_kseg" `Quick test_is_kseg;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "checkpoint/restore round trip" `Quick test_checkpoint_round_trip;
        ] );
    ]
