module Disk = Rio_disk.Disk

(* Record layout: magic u32, seq u32, home-sector u32, len u32, payload,
   crc32 u32 — padded to whole sectors. *)

let record_magic = 0x4C4F4752 (* "LOGR" *)

type t = {
  disk : Disk.t;
  start_sector : int;
  sectors : int;
  mutable head : int; (* next free sector offset within the log *)
  mutable seq : int;
  mutable on_checkpoint : unit -> unit;
  mutable on_event : label:string -> unit;
  buffer : Buffer.t; (* group-commit staging *)
}

let group_commit_bytes = 64 * 1024

let create ~disk ~start_sector ~sectors =
  { disk; start_sector; sectors; head = 0; seq = 0;
    on_checkpoint = (fun () -> ()); on_event = (fun ~label:_ -> ());
    buffer = Buffer.create 4096 }

let set_on_checkpoint t f = t.on_checkpoint <- f

let set_on_event t f = t.on_event <- f

(* Group commit: push the staged records as one sequential write. The
   hand-off to the backend is an ordering point — a crash between staging
   and this write loses the whole group, so it is announced as a
   write-behind commit boundary. *)
let flush_group t =
  if Buffer.length t.buffer > 0 then begin
    let data = Buffer.to_bytes t.buffer in
    Buffer.clear t.buffer;
    let record_sectors = Bytes.length data / Disk.sector_bytes in
    if t.head + record_sectors > t.sectors then begin
      t.on_checkpoint ();
      t.head <- 0
    end;
    t.on_event
      ~label:
        (Printf.sprintf "wb-commit journal s%d x%d" (t.start_sector + t.head) record_sectors);
    Disk.write_async t.disk ~sector:(t.start_sector + t.head) data;
    t.head <- t.head + record_sectors
  end

let checkpoint t =
  flush_group t;
  t.on_checkpoint ();
  t.head <- 0;
  (* Invalidate stale records by bumping the sequence epoch and scrubbing the
     first sector so replay stops immediately. *)
  Disk.write_async t.disk ~sector:t.start_sector (Bytes.make Disk.sector_bytes '\000')

let encode_record ~seq ~sector payload =
  let len = Bytes.length payload in
  let body = 16 + len + 4 in
  let padded = (body + Disk.sector_bytes - 1) / Disk.sector_bytes * Disk.sector_bytes in
  let b = Bytes.make padded '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int record_magic);
  Bytes.set_int32_le b 4 (Int32.of_int seq);
  Bytes.set_int32_le b 8 (Int32.of_int sector);
  Bytes.set_int32_le b 12 (Int32.of_int len);
  Bytes.blit payload 0 b 16 len;
  let crc = Rio_util.Checksum.crc32 b ~pos:0 ~len:(16 + len) in
  Bytes.set_int32_le b (16 + len) (Int32.of_int crc);
  b

let append t ~sector payload =
  let record = encode_record ~seq:t.seq ~sector payload in
  if Bytes.length record > t.sectors * Disk.sector_bytes then
    Fs_types.err "journal: record larger than the whole log";
  Buffer.add_bytes t.buffer record;
  t.seq <- t.seq + 1;
  if Buffer.length t.buffer >= group_commit_bytes then flush_group t

(* ---- world-template rewind ---- *)

type state = { ck_head : int; ck_seq : int; ck_buf : string }

let save t = { ck_head = t.head; ck_seq = t.seq; ck_buf = Buffer.contents t.buffer }

let restore t ck =
  t.head <- ck.ck_head;
  t.seq <- ck.ck_seq;
  Buffer.clear t.buffer;
  Buffer.add_string t.buffer ck.ck_buf

let replay ~disk ~start_sector ~sectors =
  let applied = ref 0 in
  let pos = ref 0 in
  let continue = ref true in
  while !continue && !pos < sectors do
    let header = Disk.peek disk ~sector:(start_sector + !pos) in
    let magic = Int32.to_int (Bytes.get_int32_le header 0) land 0xFFFF_FFFF in
    if magic <> record_magic then continue := false
    else begin
      let len = Int32.to_int (Bytes.get_int32_le header 12) land 0xFFFF_FFFF in
      let body = 16 + len + 4 in
      let record_sectors = (body + Disk.sector_bytes - 1) / Disk.sector_bytes in
      if !pos + record_sectors > sectors then continue := false
      else begin
        let record = Bytes.create (record_sectors * Disk.sector_bytes) in
        for i = 0 to record_sectors - 1 do
          let s = Disk.peek disk ~sector:(start_sector + !pos + i) in
          Bytes.blit s 0 record (i * Disk.sector_bytes) Disk.sector_bytes
        done;
        let stored_crc = Int32.to_int (Bytes.get_int32_le record (16 + len)) land 0xFFFF_FFFF in
        let crc = Rio_util.Checksum.crc32 record ~pos:0 ~len:(16 + len) in
        if stored_crc <> crc then continue := false
        else begin
          let home = Int32.to_int (Bytes.get_int32_le record 8) land 0xFFFF_FFFF in
          let payload = Bytes.sub record 16 len in
          let payload_sectors = (len + Disk.sector_bytes - 1) / Disk.sector_bytes in
          for i = 0 to payload_sectors - 1 do
            let chunk_len = min Disk.sector_bytes (len - (i * Disk.sector_bytes)) in
            let chunk = Bytes.make Disk.sector_bytes '\000' in
            Bytes.blit payload (i * Disk.sector_bytes) chunk 0 chunk_len;
            (* Partial trailing sector: merge with the existing contents so a
               512-byte-aligned home sector is not half-scrubbed. *)
            if chunk_len < Disk.sector_bytes then begin
              let existing = Disk.peek disk ~sector:(home + i) in
              Bytes.blit existing chunk_len chunk chunk_len (Disk.sector_bytes - chunk_len)
            end;
            Disk.poke disk ~sector:(home + i) chunk
          done;
          incr applied;
          pos := !pos + record_sectors
        end
      end
    end
  done;
  !applied
