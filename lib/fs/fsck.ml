open Fs_types
module Disk = Rio_disk.Disk

type report = {
  repairs : string list;
  unrecoverable : bool;
}

let clean r = r.repairs = [] && not r.unrecoverable

(* Bitmap helpers over a byte array (one bit per object). *)
let bit_get bm i = Char.code (Bytes.get bm (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set bm i v =
  let byte = Char.code (Bytes.get bm (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set bm (i / 8) (Char.chr (if v then byte lor mask else byte land lnot mask))

let read_sectors disk ~sector ~count =
  let b = Bytes.create (count * Disk.sector_bytes) in
  for i = 0 to count - 1 do
    let s = Disk.peek disk ~sector:(sector + i) in
    Bytes.blit s 0 b (i * Disk.sector_bytes) Disk.sector_bytes
  done;
  b

let write_sectors disk ~sector data =
  let count = (Bytes.length data + Disk.sector_bytes - 1) / Disk.sector_bytes in
  for i = 0 to count - 1 do
    let chunk = Bytes.make Disk.sector_bytes '\000' in
    let len = min Disk.sector_bytes (Bytes.length data - (i * Disk.sector_bytes)) in
    Bytes.blit data (i * Disk.sector_bytes) chunk 0 len;
    Disk.poke disk ~sector:(sector + i) chunk
  done

let run ~disk =
  let repairs = ref [] in
  let repair fmt = Printf.ksprintf (fun s -> repairs := s :: !repairs) fmt in
  match Ondisk.read_superblock (Disk.peek disk ~sector:Ondisk.superblock_sector) with
  | exception Fs_error msg ->
    { repairs = [ Printf.sprintf "superblock: %s" msg ]; unrecoverable = true }
  | sb ->
    let ibitmap = read_sectors disk ~sector:sb.ibitmap_start ~count:sb.ibitmap_sectors in
    let bbitmap = read_sectors disk ~sector:sb.bbitmap_start ~count:sb.bbitmap_sectors in
    (* Pass 1: parse allocated inodes; free the undecodable. *)
    let inodes = Hashtbl.create 64 in
    for ino = 1 to sb.inode_count do
      if bit_get ibitmap (ino - 1) then begin
        let sector = Ondisk.inode_sector sb ino in
        let raw = Disk.peek disk ~sector in
        if Ondisk.inode_is_free raw ~pos:0 then begin
          repair "inode %d: allocated in bitmap but slot is free; bitmap cleared" ino;
          bit_set ibitmap (ino - 1) false
        end
        else
          match Ondisk.read_inode raw ~pos:0 with
          | inode -> Hashtbl.replace inodes ino inode
          | exception Fs_error msg ->
            repair "inode %d: undecodable (%s); freed" ino msg;
            bit_set ibitmap (ino - 1) false;
            write_sectors disk ~sector (Ondisk.free_inode_image ())
      end
    done;
    (* Pass 2: validate block pointers; clear bad and doubly-claimed ones. *)
    let claims = Hashtbl.create 256 in
    let touched = Hashtbl.create 64 in
    let note_touched ino = Hashtbl.replace touched ino () in
    Hashtbl.iter
      (fun ino (inode : Ondisk.inode) ->
        Array.iteri
          (fun slot ptr ->
            if ptr <> 0 then begin
              let blkno = ptr - 1 in
              if blkno < 0 || blkno >= sb.data_blocks then begin
                repair "inode %d: block pointer %d out of range; cleared" ino slot;
                inode.Ondisk.blocks.(slot) <- 0;
                note_touched ino
              end
              else
                match Hashtbl.find_opt claims blkno with
                | Some first ->
                  repair "inode %d: block %d already claimed by inode %d; cleared" ino blkno
                    first;
                  inode.Ondisk.blocks.(slot) <- 0;
                  note_touched ino
                | None -> Hashtbl.replace claims blkno ino
            end)
          inode.Ondisk.blocks)
      inodes;
    (* Pass 3: walk the directory tree from the root. *)
    let reachable = Hashtbl.create 64 in
    (match Hashtbl.find_opt inodes root_ino with
    | Some inode when inode.Ondisk.ftype = Directory -> ()
    | _ ->
      repair "root inode missing or not a directory; recreated empty";
      let root = Ondisk.empty_inode Directory in
      root.Ondisk.nlink <- 1;
      Hashtbl.replace inodes root_ino root;
      bit_set ibitmap (root_ino - 1) true;
      note_touched root_ino);
    let link_counts = Hashtbl.create 64 in
    let count_link ino =
      Hashtbl.replace link_counts ino (1 + Option.value ~default:0 (Hashtbl.find_opt link_counts ino))
    in
    let rec walk ino =
      if not (Hashtbl.mem reachable ino) then begin
        Hashtbl.replace reachable ino ();
        match Hashtbl.find_opt inodes ino with
        | Some inode when inode.Ondisk.ftype = Directory ->
          let nblocks = (inode.Ondisk.size + block_bytes - 1) / block_bytes in
          for bi = 0 to nblocks - 1 do
            let ptr = if bi < ndirect then inode.Ondisk.blocks.(bi) else 0 in
            if ptr <> 0 then begin
              let sector = Ondisk.data_sector sb (ptr - 1) in
              let raw = read_sectors disk ~sector ~count:sectors_per_block in
              let entries =
                match Ondisk.dir_unpack raw ~pos:0 ~len:block_bytes with
                | entries -> entries
                | exception Fs_error msg ->
                  repair "directory %d block %d: corrupt (%s); truncated" ino bi msg;
                  write_sectors disk ~sector (Ondisk.dir_pack []);
                  []
              in
              let surviving =
                List.filter
                  (fun (name, child) ->
                    if child < 1 || child > sb.inode_count || not (Hashtbl.mem inodes child)
                    then begin
                      repair "directory %d: entry %S points to dead inode %d; dropped" ino name
                        child;
                      false
                    end
                    else true)
                  entries
              in
              if List.length surviving <> List.length entries then
                write_sectors disk ~sector (Ondisk.dir_pack surviving);
              List.iter (fun (_, child) -> count_link child) surviving;
              List.iter (fun (_, child) -> walk child) surviving
            end
          done
        | Some _ | None -> ()
      end
    in
    walk root_ino;
    (* Pass 4: free unreachable inodes. *)
    let orphans =
      Hashtbl.fold (fun ino _ acc -> if Hashtbl.mem reachable ino then acc else ino :: acc)
        inodes []
    in
    List.iter
      (fun ino ->
        repair "inode %d: unreachable; freed" ino;
        Hashtbl.remove inodes ino;
        bit_set ibitmap (ino - 1) false;
        write_sectors disk ~sector:(Ondisk.inode_sector sb ino) (Ondisk.free_inode_image ()))
      (List.sort compare orphans);
    (* Pass 4b: correct link counts against the directory walk. *)
    Hashtbl.iter
      (fun ino (inode : Ondisk.inode) ->
        if Hashtbl.mem reachable ino && ino <> root_ino then begin
          let actual = Option.value ~default:0 (Hashtbl.find_opt link_counts ino) in
          if actual > 0 && inode.Ondisk.nlink <> actual then begin
            repair "inode %d: link count %d should be %d; corrected" ino inode.Ondisk.nlink
              actual;
            inode.Ondisk.nlink <- actual;
            note_touched ino
          end
        end)
      inodes;
    (* Pass 5: rebuild the block bitmap from surviving inodes. *)
    let should = Bytes.make (Bytes.length bbitmap) '\000' in
    Hashtbl.iter
      (fun ino (inode : Ondisk.inode) ->
        if Hashtbl.mem reachable ino then
          Array.iter (fun ptr -> if ptr <> 0 then bit_set should (ptr - 1) true)
            inode.Ondisk.blocks)
      inodes;
    let mismatches = ref 0 in
    for b = 0 to sb.data_blocks - 1 do
      if bit_get bbitmap b <> bit_get should b then incr mismatches
    done;
    if !mismatches > 0 then begin
      repair "block bitmap: %d blocks corrected" !mismatches;
      Bytes.blit should 0 bbitmap 0 (Bytes.length bbitmap)
    end;
    (* Write back repaired state and mark the volume clean. *)
    Hashtbl.iter
      (fun ino () ->
        match Hashtbl.find_opt inodes ino with
        | Some inode ->
          let img = Bytes.make Ondisk.inode_bytes '\000' in
          Ondisk.write_inode inode img ~pos:0;
          write_sectors disk ~sector:(Ondisk.inode_sector sb ino) img
        | None -> ())
      touched;
    write_sectors disk ~sector:sb.ibitmap_start ibitmap;
    write_sectors disk ~sector:sb.bbitmap_start bbitmap;
    write_sectors disk ~sector:Ondisk.superblock_sector
      (Ondisk.write_superblock { sb with Ondisk.clean = true });
    { repairs = List.rev !repairs; unrecoverable = false }
