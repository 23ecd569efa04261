module Phys_mem = Rio_mem.Phys_mem
module Trace = Rio_obs.Trace

type t = {
  page_table : Page_table.t;
  tlb : Tlb.t;
  obs : Trace.t;
  c_traps : Trace.counter;
  mutable kseg_through_tlb : bool;
  mutable protection_faults : int;
  mutable unmapped_faults : int;
}

type access = Read | Write | Exec

type fault =
  | Unmapped of int
  | Write_protected of int

type result = Ok of Phys_mem.paddr | Fault of fault

let kseg_base = 1 lsl 40

let kseg_addr paddr = kseg_base + paddr

let is_kseg vaddr = vaddr >= kseg_base

let create ?(obs = Trace.null) ~mem_pages ~tlb_entries () =
  {
    page_table = Page_table.create ~pages:mem_pages;
    tlb = Tlb.create ~entries:tlb_entries;
    obs;
    c_traps = Trace.counter obs "vm.protection_traps";
    kseg_through_tlb = false;
    protection_faults = 0;
    unmapped_faults = 0;
  }

let page_table t = t.page_table
let tlb t = t.tlb
let kseg_through_tlb t = t.kseg_through_tlb
let set_kseg_through_tlb t b = t.kseg_through_tlb <- b

let note_unmapped t = t.unmapped_faults <- t.unmapped_faults + 1

let note_protected t vaddr =
  t.protection_faults <- t.protection_faults + 1;
  if Trace.enabled t.obs then begin
    Trace.incr t.c_traps;
    (* In the mapped (and KSEG-through-TLB) identity layout, the faulting
       virtual address is the physical address. *)
    Trace.emit t.obs Trace.Vm (Trace.Protection_trap { paddr = vaddr })
  end

(* The allocation-free translation core used by the CPU's inner loop:
   a non-negative return is the physical address; the negative codes name
   the fault. The fault's payload address is reconstructed by the caller
   (or by the boxing [translate] wrapper below) from the input [vaddr],
   which is exactly what the boxed constructors carried. *)

let code_unmapped = -1
let code_write_protected = -2

let translate_mapped_code t ~vaddr ~access =
  if vaddr < 0 then begin
    note_unmapped t;
    code_unmapped
  end
  else begin
    let vpn = vaddr / Phys_mem.page_size in
    let flags = Page_table.flags t.page_table in
    if vpn >= Bytes.length flags then begin
      note_unmapped t;
      code_unmapped
    end
    else begin
      let f = Char.code (Bytes.unsafe_get flags vpn) in
      if f land Page_table.valid_bit = 0 then begin
        note_unmapped t;
        code_unmapped
      end
      else begin
        Tlb.access t.tlb ~vpn;
        match access with
        | Write when f land Page_table.writable_bit = 0 ->
          note_protected t vaddr;
          code_write_protected
        | Read | Write | Exec -> vaddr (* identity mapping *)
      end
    end
  end

let translate_code t ~vaddr ~access =
  if is_kseg vaddr then begin
    let paddr = vaddr - kseg_base in
    if t.kseg_through_tlb then translate_mapped_code t ~vaddr:paddr ~access
    else if paddr / Phys_mem.page_size < Page_table.pages t.page_table then paddr
    else begin
      note_unmapped t;
      code_unmapped
    end
  end
  else translate_mapped_code t ~vaddr ~access

(* The fault payload [translate] would have boxed for [vaddr]: mapped
   accesses fault on the virtual address itself; KSEG accesses routed
   through the TLB fault on the stripped (physical) address, while
   out-of-range KSEG bypasses fault on the full KSEG address. *)
let fault_vaddr t vaddr =
  if is_kseg vaddr && t.kseg_through_tlb then vaddr - kseg_base else vaddr

let translate t ~vaddr ~access =
  let code = translate_code t ~vaddr ~access in
  if code >= 0 then Ok code
  else if code = code_write_protected then Fault (Write_protected (fault_vaddr t vaddr))
  else Fault (Unmapped (fault_vaddr t vaddr))

let protection_faults t = t.protection_faults
let unmapped_faults t = t.unmapped_faults

let reset_stats t =
  t.protection_faults <- 0;
  t.unmapped_faults <- 0;
  Tlb.reset_stats t.tlb

(* ---- world-template rewind ---- *)

type checkpoint = {
  ck_flags : Bytes.t; (* the page table's flag bytes *)
  ck_tlb : Tlb.checkpoint;
  ck_kseg : bool;
  ck_prot_faults : int;
  ck_unmapped_faults : int;
}

let checkpoint t =
  { ck_flags = Bytes.copy (Page_table.flags t.page_table); ck_tlb = Tlb.checkpoint t.tlb;
    ck_kseg = t.kseg_through_tlb; ck_prot_faults = t.protection_faults;
    ck_unmapped_faults = t.unmapped_faults }

let restore t ck =
  let flags = Page_table.flags t.page_table in
  Bytes.blit ck.ck_flags 0 flags 0 (Bytes.length flags);
  Tlb.restore t.tlb ck.ck_tlb;
  t.kseg_through_tlb <- ck.ck_kseg;
  t.protection_faults <- ck.ck_prot_faults;
  t.unmapped_faults <- ck.ck_unmapped_faults

let pp_fault ppf = function
  | Unmapped a -> Format.fprintf ppf "unmapped address %#x" a
  | Write_protected a -> Format.fprintf ppf "write to protected address %#x" a
