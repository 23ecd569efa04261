(* Tests for the file-system substrate: on-disk formats, block caches, the
   VFS API, write policies, the journal, and fsck. *)

module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout
module Page_alloc = Rio_mem.Page_alloc
module Disk = Rio_disk.Disk
module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Ondisk = Rio_fs.Ondisk
module Hooks = Rio_fs.Hooks
module Journal = Rio_fs.Journal
module Fsck = Rio_fs.Fsck
module Block_cache = Rio_fs.Block_cache
module Pattern = Rio_util.Pattern

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

type env = {
  engine : Engine.t;
  mem : Phys_mem.t;
  disk : Disk.t;
  meta_alloc : Page_alloc.t;
  pool_alloc : Page_alloc.t;
  hooks : Hooks.t;
}

let make_env () =
  let engine = Engine.create () in
  let layout = Layout.create Layout.default_config in
  let mem = Phys_mem.create ~bytes_total:Layout.default_config.Layout.total_bytes in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:(64 * 1024) ~seed:3 () in
  let geom = Fs.default_geometry ~disk_sectors:(64 * 1024) ~mem_bytes:(Phys_mem.size mem) in
  Fs.mkfs ~disk geom;
  {
    engine;
    mem;
    disk;
    meta_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Buffer_cache);
    pool_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Page_pool);
    hooks = Hooks.defaults ~mem;
  }

let mount env policy =
  Fs.mount ~engine:env.engine ~costs:Costs.default ~mem:env.mem ~meta_alloc:env.meta_alloc
    ~pool_alloc:env.pool_alloc ~disk:env.disk ~policy ~hooks:env.hooks ~wb_unordered:false

let with_fs policy f =
  let env = make_env () in
  f env (mount env policy)

(* Fresh caches over the same (crashed) disk: a cold reboot. *)
let make_env_on env =
  let layout = Layout.create Layout.default_config in
  let mem = Phys_mem.create ~bytes_total:Layout.default_config.Layout.total_bytes in
  {
    env with
    mem;
    meta_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Buffer_cache);
    pool_alloc = Page_alloc.create ~region:(Layout.region layout Layout.Page_pool);
    hooks = Hooks.defaults ~mem;
  }


(* ---------------- free counts ----------------

   Mount seeds its free counters, and statfs recounts, with one meta_get
   and a popcount per bitmap sector. The model is the per-bit scan they
   replaced — one bitmap lookup through the meta cache per index — and
   both must agree on the counts, the cache statistics, the LRU ticks,
   the clock and the disk. The geometry gives both bitmaps several
   sectors with a partial last one. *)

let bitmap_geometry =
  { Fs.total_sectors = 160_000; inode_count = 4096 + 904; swap_sectors = 4096;
    journal_sectors = 2048 }

let bitmap_env () =
  let env = make_env () in
  let disk = Disk.create ~engine:env.engine ~costs:Costs.default ~sectors:160_000 ~seed:3 () in
  Fs.mkfs ~disk bitmap_geometry;
  let sb = Ondisk.read_superblock (Disk.peek disk ~sector:0) in
  (* Random allocation state, garbage past the last bit included: a bitmap
     sector is whole on disk even when the bitmap ends inside it. *)
  let prng = Random.State.make [| 21 |] in
  let scribble start sectors =
    for s = start to start + sectors - 1 do
      Disk.poke disk ~sector:s
        (Bytes.init Disk.sector_bytes (fun _ ->
             if Random.State.int prng 3 = 0 then '\000' else Char.chr (Random.State.int prng 256)))
    done
  in
  scribble sb.Ondisk.ibitmap_start sb.Ondisk.ibitmap_sectors;
  scribble sb.Ondisk.bbitmap_start sb.Ondisk.bbitmap_sectors;
  ({ env with disk }, sb)

let bits_per_sector = 8 * Disk.sector_bytes

(* Free bits among the first [n], read straight off the platter. *)
let platter_free disk ~start n =
  let free = ref 0 in
  for i = 0 to n - 1 do
    let sector = Disk.peek disk ~sector:(start + (i / bits_per_sector)) in
    if Char.code (Bytes.get sector (i / 8 mod Disk.sector_bytes)) land (1 lsl (i mod 8)) = 0 then
      incr free
  done;
  !free

(* The per-bit scan through the meta cache, as mount and statfs did it. *)
let per_bit_free env fs ~start n =
  let meta = Fs.meta_cache fs in
  let free = ref 0 in
  for i = 0 to n - 1 do
    let sector = start + (i / bits_per_sector) in
    let e =
      Block_cache.get meta ~blkno:(sector - (sector mod Fs_types.sectors_per_block))
        ~owner:Fs_types.Meta ~fill:Block_cache.From_disk
    in
    Block_cache.pin meta e;
    let addr =
      e.Block_cache.paddr
      + (sector mod Fs_types.sectors_per_block * Disk.sector_bytes)
      + (i / 8 mod Disk.sector_bytes)
    in
    if Phys_mem.read_u8 env.mem addr land (1 lsl (i mod 8)) = 0 then incr free
  done;
  !free

let cache_state fs =
  let entries = ref [] in
  Block_cache.iter (Fs.meta_cache fs) (fun e ->
      entries :=
        (e.Block_cache.blkno, e.Block_cache.paddr, e.Block_cache.tick, e.Block_cache.pinned,
         e.Block_cache.dirty)
        :: !entries);
  (Block_cache.stats (Fs.meta_cache fs), List.rev !entries)

let test_mount_free_counts () =
  let env, sb = bitmap_env () in
  check Alcotest.bool "inode bitmap ends mid-sector" true
    (sb.Ondisk.inode_count mod bits_per_sector <> 0 && sb.Ondisk.inode_count > bits_per_sector);
  check Alcotest.bool "block bitmap ends mid-sector" true
    (sb.Ondisk.data_blocks mod bits_per_sector <> 0 && sb.Ondisk.data_blocks > bits_per_sector);
  let expected =
    ( platter_free env.disk ~start:sb.Ondisk.ibitmap_start sb.Ondisk.inode_count,
      platter_free env.disk ~start:sb.Ondisk.bbitmap_start sb.Ondisk.data_blocks )
  in
  let fs = mount env Fs.Rio_policy in
  check Alcotest.(pair int int) "mount's counters" expected (Fs.free_counts fs);
  (* Mount looked every bit up once, the first lookup of each bitmap page
     a miss: per bit, one hit or one miss. *)
  let s = Block_cache.stats (Fs.meta_cache fs) in
  let bitmap_pages =
    let page s = s / Fs_types.sectors_per_block in
    List.sort_uniq compare
      (List.init sb.Ondisk.ibitmap_sectors (fun k -> page (sb.Ondisk.ibitmap_start + k))
      @ List.init
          ((sb.Ondisk.data_blocks + bits_per_sector - 1) / bits_per_sector)
          (fun k -> page (sb.Ondisk.bbitmap_start + k)))
  in
  (* Plus the superblock page: one miss, and the two hits of mount's
     dirty-mark and write-back. *)
  check Alcotest.int "misses" (List.length bitmap_pages + 1) s.Block_cache.misses;
  check Alcotest.int "hits"
    (sb.Ondisk.inode_count + sb.Ondisk.data_blocks - List.length bitmap_pages + 2)
    s.Block_cache.hits

let test_statfs_matches_per_bit_scan () =
  let env_a, sb = bitmap_env () and env_b, _ = bitmap_env () in
  let fs_a = mount env_a Fs.Rio_policy and fs_b = mount env_b Fs.Rio_policy in
  List.iter
    (fun phase ->
      if phase = "cold" then begin
        Fs.remount_cold fs_a;
        Fs.remount_cold fs_b
      end;
      let st = Fs.statfs fs_a in
      Engine.advance_by env_b.engine Costs.default.Costs.syscall_overhead;
      let inodes = per_bit_free env_b fs_b ~start:sb.Ondisk.ibitmap_start sb.Ondisk.inode_count in
      let blocks = per_bit_free env_b fs_b ~start:sb.Ondisk.bbitmap_start sb.Ondisk.data_blocks in
      check Alcotest.(pair int int) (phase ^ ": counts") (inodes, blocks)
        (st.Fs.inodes_free, st.Fs.blocks_free);
      check Alcotest.bool (phase ^ ": meta cache stats, ticks and pins") true
        (cache_state fs_a = cache_state fs_b);
      check Alcotest.int (phase ^ ": clock") (Engine.now env_b.engine) (Engine.now env_a.engine);
      check Alcotest.bool (phase ^ ": disk stats") true
        (Disk.stats env_a.disk = Disk.stats env_b.disk))
    [ "cold"; "warm" ]

(* ---------------- on-disk formats ---------------- *)

let test_superblock_roundtrip () =
  let env = make_env () in
  let sb = Ondisk.read_superblock (Disk.peek env.disk ~sector:0) in
  let back = Ondisk.read_superblock (Ondisk.write_superblock sb) in
  check Alcotest.bool "roundtrip" true (sb = back)

let test_superblock_bad_magic () =
  Alcotest.check_raises "bad magic"
    (Fs_types.Fs_error "superblock: bad magic 0") (fun () ->
      ignore (Ondisk.read_superblock (Bytes.make 512 '\000')))

let test_inode_roundtrip () =
  let inode = Ondisk.empty_inode Fs_types.Regular in
  inode.Ondisk.size <- 12345;
  inode.Ondisk.nlink <- 2;
  inode.Ondisk.mtime <- 999;
  inode.Ondisk.blocks.(0) <- 7;
  inode.Ondisk.blocks.(95) <- 42;
  let b = Bytes.make Ondisk.inode_bytes '\000' in
  Ondisk.write_inode inode b ~pos:0;
  let back = Ondisk.read_inode b ~pos:0 in
  check Alcotest.int "size" 12345 back.Ondisk.size;
  check Alcotest.int "block 0" 7 back.Ondisk.blocks.(0);
  check Alcotest.int "block 95" 42 back.Ondisk.blocks.(95)

let test_inode_bad_tag () =
  let b = Bytes.make Ondisk.inode_bytes '\000' in
  Bytes.set b 0 '\009';
  Alcotest.check_raises "bad tag" (Fs_types.Fs_error "inode: invalid type tag 9") (fun () ->
      ignore (Ondisk.read_inode b ~pos:0))

let test_free_inode_detection () =
  let b = Ondisk.free_inode_image () in
  check Alcotest.bool "free" true (Ondisk.inode_is_free b ~pos:0)

let test_dir_pack_unpack () =
  let entries = [ ("alpha", 3); ("beta.c", 7); ("a-long-ish-name.ml", 42) ] in
  let b = Ondisk.dir_pack entries in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "roundtrip" entries
    (Ondisk.dir_unpack b ~pos:0 ~len:(Bytes.length b))

let test_dir_corrupt_name () =
  let b = Ondisk.dir_pack [ ("ok", 1) ] in
  Bytes.set b 5 '\000' (* zap a name byte to a control character *);
  (match Ondisk.dir_unpack b ~pos:0 ~len:(Bytes.length b) with
  | _ -> Alcotest.fail "expected corruption to be detected"
  | exception Fs_types.Fs_error _ -> ())

let prop_dir_roundtrip =
  let name_gen = QCheck.Gen.(map (fun s -> "f" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))) in
  QCheck.Test.make ~name:"directory entries roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20)
              (pair (make name_gen) (int_range 1 100000)))
    (fun entries ->
      (* Deduplicate names (directories cannot hold duplicates). *)
      let entries =
        List.fold_left
          (fun acc (n, i) -> if List.mem_assoc n acc then acc else (n, i) :: acc)
          [] entries
        |> List.rev
      in
      let b = Ondisk.dir_pack entries in
      Ondisk.dir_unpack b ~pos:0 ~len:(Bytes.length b) = entries)

(* ---------------- basic file operations ---------------- *)

let test_create_read_write () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let fd = Fs.create fs "/hello.txt" in
      Fs.write fs fd (Bytes.of_string "hello");
      Fs.close fs fd;
      check Alcotest.bytes "read back" (Bytes.of_string "hello") (Fs.read_file fs "/hello.txt"))

let test_multi_block_file () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let data = Pattern.fill ~seed:1 ~len:50_000 in
      Fs.write_file fs "/big" data;
      check Alcotest.bytes "multi-block roundtrip" data (Fs.read_file fs "/big"))

let test_pwrite_pread () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let fd = Fs.create fs "/f" in
      Fs.pwrite fs fd ~offset:0 (Bytes.of_string "aaaaaaaaaa");
      Fs.pwrite fs fd ~offset:3 (Bytes.of_string "XYZ");
      check Alcotest.bytes "overwrite" (Bytes.of_string "aaaXYZaaaa")
        (Fs.pread fs fd ~offset:0 ~len:10);
      check Alcotest.bytes "offset read" (Bytes.of_string "XYZ") (Fs.pread fs fd ~offset:3 ~len:3);
      Fs.close fs fd)

let test_hole_reads_zero () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let fd = Fs.create fs "/sparse" in
      Fs.pwrite fs fd ~offset:20_000 (Bytes.of_string "end");
      check Alcotest.int "size includes hole" 20_003 (Fs.fd_size fs fd);
      let hole = Fs.pread fs fd ~offset:100 ~len:16 in
      check Alcotest.bytes "hole is zeros" (Bytes.make 16 '\000') hole;
      Fs.close fs fd)

let test_short_read_at_eof () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.of_string "abc");
      let fd = Fs.open_file fs "/f" in
      check Alcotest.int "short read" 3 (Bytes.length (Fs.read fs fd ~len:100));
      check Alcotest.int "at eof empty" 0 (Bytes.length (Fs.read fs fd ~len:100));
      Fs.close fs fd)

let test_cursor_semantics () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let fd = Fs.create fs "/f" in
      Fs.write fs fd (Bytes.of_string "one");
      Fs.write fs fd (Bytes.of_string "two");
      Fs.seek fs fd 0;
      check Alcotest.bytes "sequential writes" (Bytes.of_string "onetwo") (Fs.read fs fd ~len:6);
      Fs.close fs fd)

let test_create_truncates () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.of_string "a long first version");
      Fs.write_file fs "/f" (Bytes.of_string "short");
      check Alcotest.bytes "truncated" (Bytes.of_string "short") (Fs.read_file fs "/f"))

let test_max_file_size () =
  with_fs Fs.Ufs_default (fun _ fs ->
      let fd = Fs.create fs "/huge" in
      Alcotest.check_raises "too big"
        (Fs_types.Fs_error "write: file would exceed maximum size") (fun () ->
          Fs.pwrite fs fd ~offset:(96 * 8192) (Bytes.of_string "x")))

(* A negative offset is refused before any byte moves. It used to land
   in the byte before the file's page, outside the page's write window,
   where Rio's protection never saw it. *)
let test_negative_offsets () =
  List.iter
    (fun (rio, policy) ->
      let w = Rio_world.World.create ~rio ~protection:true ~policy ~seed:21 () in
      let fs = Rio_world.World.fs w and mem = Rio_world.World.mem w in
      let contents = Pattern.fill ~seed:4 ~len:3000 in
      Fs.write_file fs "/f" contents;
      let fd = Fs.open_file fs "/f" in
      let page = ref None in
      Block_cache.iter (Fs.data_cache fs) (fun e ->
          match e.Block_cache.owner with
          | Fs_types.Data { offset = 0; _ } -> page := Some e.Block_cache.paddr
          | Fs_types.Data _ | Fs_types.Meta -> ());
      let before = Phys_mem.read_u8 mem (Option.get !page - 1) in
      let refused what f =
        check Alcotest.bool (Fs.policy_name policy ^ ": " ^ what) true
          (match f () with _ -> false | exception Fs_types.Fs_error _ -> true)
      in
      List.iter
        (fun offset ->
          refused "pwrite" (fun () -> Fs.pwrite fs fd ~offset (Bytes.of_string "XY"));
          refused "pread" (fun () -> Fs.pread fs fd ~offset ~len:2);
          refused "Syscall pwrite" (fun () ->
              Fs.Syscall.run fs (Fs.Syscall.Pwrite { fd; offset; data = Bytes.of_string "XY" })))
        [ -1; -8193 ];
      check Alcotest.bytes "file unchanged" contents (Fs.read_file fs "/f");
      check Alcotest.int "byte before the page unchanged" before
        (Phys_mem.read_u8 mem (Option.get !page - 1));
      Rio_world.World.dispose w)
    [ (false, Fs.Ufs_default); (true, Fs.Rio_policy) ]

let test_missing_file () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Alcotest.check_raises "no such file"
        (Fs_types.Fs_error "/nope: no such file or directory") (fun () ->
          ignore (Fs.open_file fs "/nope")))

(* ---------------- namespace ---------------- *)

let test_mkdir_readdir () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/a";
      Fs.mkdir fs "/a/b";
      Fs.write_file fs "/a/f1" (Bytes.of_string "1");
      Fs.write_file fs "/a/f2" (Bytes.of_string "2");
      check (Alcotest.list Alcotest.string) "sorted entries" [ "b"; "f1"; "f2" ]
        (Fs.readdir fs "/a");
      check (Alcotest.list Alcotest.string) "root" [ "a" ] (Fs.readdir fs "/"))

let test_unlink () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.of_string "x");
      Fs.unlink fs "/f";
      check Alcotest.bool "gone" false (Fs.exists fs "/f"))

let test_rmdir_refuses_nonempty () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/d";
      Fs.write_file fs "/d/f" (Bytes.of_string "x");
      Alcotest.check_raises "not empty" (Fs_types.Fs_error "/d: directory not empty") (fun () ->
          Fs.rmdir fs "/d");
      Fs.unlink fs "/d/f";
      Fs.rmdir fs "/d";
      check Alcotest.bool "gone" false (Fs.exists fs "/d"))

let test_rename () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/d";
      Fs.write_file fs "/f" (Bytes.of_string "move me");
      Fs.rename fs "/f" "/d/g";
      check Alcotest.bool "source gone" false (Fs.exists fs "/f");
      check Alcotest.bytes "moved" (Bytes.of_string "move me") (Fs.read_file fs "/d/g"))

let test_rename_replaces () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/a" (Bytes.of_string "new");
      Fs.write_file fs "/b" (Bytes.of_string "old");
      Fs.rename fs "/a" "/b";
      check Alcotest.bytes "replaced" (Bytes.of_string "new") (Fs.read_file fs "/b"))

let test_stat () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.of_string "12345");
      let st = Fs.stat fs "/f" in
      check Alcotest.int "size" 5 st.Fs.st_size;
      check Alcotest.bool "regular" true (st.Fs.st_ftype = Fs_types.Regular);
      let std = Fs.stat fs "/" in
      check Alcotest.bool "root is dir" true (std.Fs.st_ftype = Fs_types.Directory))

let test_many_files_in_dir () =
  (* Force directory growth past one block. *)
  with_fs Fs.Ufs_delayed (fun _ fs ->
      Fs.mkdir fs "/many";
      for i = 1 to 900 do
        Fs.write_file fs (Printf.sprintf "/many/file%04d" i) (Bytes.of_string "x")
      done;
      check Alcotest.int "all listed" 900 (List.length (Fs.readdir fs "/many"));
      check Alcotest.bytes "sample readable" (Bytes.of_string "x")
        (Fs.read_file fs "/many/file0456"))

let test_statfs () =
  with_fs Fs.Ufs_delayed (fun _ fs ->
      (* Prime the root directory's block so it doesn't skew the counts. *)
      Fs.write_file fs "/primer" (Bytes.of_string "x");
      let before = Fs.statfs fs in
      check Alcotest.bool "some blocks free" true (before.Fs.blocks_free > 100);
      Fs.write_file fs "/f" (Pattern.fill ~seed:8 ~len:(5 * 8192));
      let after = Fs.statfs fs in
      check Alcotest.int "five blocks consumed" (before.Fs.blocks_free - 5) after.Fs.blocks_free;
      check Alcotest.int "one inode consumed" (before.Fs.inodes_free - 1) after.Fs.inodes_free;
      Fs.unlink fs "/f";
      let freed = Fs.statfs fs in
      check Alcotest.int "blocks returned" before.Fs.blocks_free freed.Fs.blocks_free;
      check Alcotest.int "inode returned" before.Fs.inodes_free freed.Fs.inodes_free)

(* ---------------- symlinks ---------------- *)

let test_symlink_follow () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/real";
      Fs.write_file fs "/real/data" (Bytes.of_string "through the link");
      Fs.symlink fs ~target:"/real/data" "/link";
      check Alcotest.bytes "open follows" (Bytes.of_string "through the link")
        (Fs.read_file fs "/link");
      check Alcotest.string "readlink" "/real/data" (Fs.readlink fs "/link");
      check Alcotest.bool "stat follows" true
        ((Fs.stat fs "/link").Fs.st_ftype = Fs_types.Regular);
      check Alcotest.bool "lstat does not" true
        ((Fs.lstat fs "/link").Fs.st_ftype = Fs_types.Symlink))

let test_symlink_relative () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/d";
      Fs.write_file fs "/d/target" (Bytes.of_string "rel");
      Fs.symlink fs ~target:"target" "/d/rel-link";
      check Alcotest.bytes "relative target resolves in link's dir" (Bytes.of_string "rel")
        (Fs.read_file fs "/d/rel-link"))

let test_symlink_to_directory () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/docs";
      Fs.write_file fs "/docs/a" (Bytes.of_string "via dir link");
      Fs.symlink fs ~target:"/docs" "/d-link";
      check Alcotest.bytes "intermediate symlink" (Bytes.of_string "via dir link")
        (Fs.read_file fs "/d-link/a"))

let test_symlink_loop_detected () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.symlink fs ~target:"/b" "/a";
      Fs.symlink fs ~target:"/a" "/b";
      Alcotest.check_raises "loop"
        (Fs_types.Fs_error "/a: too many levels of symbolic links") (fun () ->
          ignore (Fs.read_file fs "/a")))

let test_symlink_dangling () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.symlink fs ~target:"/nowhere" "/dangling";
      check Alcotest.string "readlink works" "/nowhere" (Fs.readlink fs "/dangling");
      Alcotest.check_raises "follow fails"
        (Fs_types.Fs_error "/dangling: no such file or directory") (fun () ->
          ignore (Fs.read_file fs "/dangling")))

let test_symlink_unlink_removes_link_only () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/t" (Bytes.of_string "kept");
      Fs.symlink fs ~target:"/t" "/l";
      Fs.unlink fs "/l";
      check Alcotest.bool "link gone" false (Fs.exists fs "/l");
      check Alcotest.bytes "target kept" (Bytes.of_string "kept") (Fs.read_file fs "/t"))

let test_symlink_survives_remount () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_default in
  Fs.write_file fs "/t" (Bytes.of_string "x");
  Fs.symlink fs ~target:"/t" "/l";
  Fs.unmount fs;
  let fs2 = mount (make_env_on env) Fs.Ufs_default in
  check Alcotest.string "target persisted" "/t" (Fs.readlink fs2 "/l")

(* ---------------- hard links ---------------- *)

let test_link_shares_content () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/orig" (Bytes.of_string "shared bytes");
      Fs.link fs "/orig" "/alias";
      check Alcotest.bytes "alias reads same" (Bytes.of_string "shared bytes")
        (Fs.read_file fs "/alias");
      check Alcotest.int "nlink 2" 2 (Fs.stat fs "/orig").Fs.st_nlink;
      check Alcotest.int "same inode" (Fs.stat fs "/orig").Fs.st_ino
        (Fs.stat fs "/alias").Fs.st_ino;
      (* Writes through one name are visible through the other. *)
      let fd = Fs.open_file fs "/alias" in
      Fs.pwrite fs fd ~offset:0 (Bytes.of_string "SHARED");
      Fs.close fs fd;
      check Alcotest.bytes "visible via orig" (Bytes.of_string "SHARED bytes")
        (Fs.read_file fs "/orig"))

let test_unlink_one_of_two () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/a" (Bytes.of_string "keep");
      Fs.link fs "/a" "/b";
      Fs.unlink fs "/a";
      check Alcotest.bool "a gone" false (Fs.exists fs "/a");
      check Alcotest.bytes "b keeps the data" (Bytes.of_string "keep") (Fs.read_file fs "/b");
      check Alcotest.int "nlink back to 1" 1 (Fs.stat fs "/b").Fs.st_nlink;
      Fs.unlink fs "/b";
      check Alcotest.bool "b gone too" false (Fs.exists fs "/b"))

let test_link_to_directory_rejected () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.mkdir fs "/d";
      Alcotest.check_raises "no dir hard links"
        (Fs_types.Fs_error "/d2: hard links to directories are not allowed") (fun () ->
          Fs.link fs "/d" "/d2"))

let test_links_survive_remount () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_default in
  Fs.write_file fs "/x" (Bytes.of_string "linked");
  Fs.link fs "/x" "/y";
  Fs.unmount fs;
  let fs2 = mount (make_env_on env) Fs.Ufs_default in
  check Alcotest.int "same ino after remount" (Fs.stat fs2 "/x").Fs.st_ino
    (Fs.stat fs2 "/y").Fs.st_ino;
  check Alcotest.int "nlink persisted" 2 (Fs.stat fs2 "/x").Fs.st_nlink

let test_fsck_corrects_nlink () =
  let env = make_env () in
  let fs = mount env Fs.Wt_write in
  Fs.write_file fs "/n" (Bytes.of_string "z");
  let ino = (Fs.stat fs "/n").Fs.st_ino in
  Fs.unmount fs;
  (* Corrupt the on-disk link count. *)
  let sb = Ondisk.read_superblock (Disk.peek env.disk ~sector:0) in
  let sector = Ondisk.inode_sector sb ino in
  let raw = Disk.peek env.disk ~sector in
  let inode = Ondisk.read_inode raw ~pos:0 in
  inode.Ondisk.nlink <- 9;
  Ondisk.write_inode inode raw ~pos:0;
  Disk.poke env.disk ~sector raw;
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "nlink repaired" true
    (List.exists
       (fun r ->
         let has_sub needle hay =
           let n = String.length needle and h = String.length hay in
           let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
           go 0
         in
         has_sub "link count" r)
       report.Fsck.repairs)

(* ---------------- truncate ---------------- *)

let test_truncate_shrink () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Pattern.fill ~seed:3 ~len:30_000);
      Fs.truncate fs "/f" 10_000;
      let got = Fs.read_file fs "/f" in
      check Alcotest.int "size" 10_000 (Bytes.length got);
      check Alcotest.bytes "prefix intact" (Pattern.fill ~seed:3 ~len:10_000) got)

let test_truncate_extend_is_hole () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.of_string "abc");
      Fs.truncate fs "/f" 100;
      let got = Fs.read_file fs "/f" in
      check Alcotest.int "extended" 100 (Bytes.length got);
      check Alcotest.string "prefix" "abc" (Bytes.sub_string got 0 3);
      check Alcotest.int "hole is zero" 0 (Char.code (Bytes.get got 50)))

let test_truncate_then_extend_zeros () =
  with_fs Fs.Ufs_default (fun _ fs ->
      Fs.write_file fs "/f" (Bytes.make 5000 'x');
      Fs.truncate fs "/f" 1000;
      Fs.truncate fs "/f" 5000;
      let got = Fs.read_file fs "/f" in
      check Alcotest.int "old bytes not resurrected" 0 (Char.code (Bytes.get got 3000)))

let test_truncate_frees_blocks () =
  with_fs Fs.Ufs_delayed (fun _ fs ->
      Fs.write_file fs "/f" (Pattern.fill ~seed:4 ~len:(10 * 8192));
      let st = Fs.stat fs "/f" in
      check Alcotest.int "10 blocks" (10 * 8192) st.Fs.st_size;
      Fs.truncate fs "/f" 8192;
      (* The freed blocks are reusable: fill the disk-worth again. *)
      Fs.write_file fs "/g" (Pattern.fill ~seed:5 ~len:(9 * 8192));
      check Alcotest.bytes "no interference" (Pattern.fill ~seed:4 ~len:8192)
        (Fs.read_file fs "/f"))

(* ---------------- persistence and policies ---------------- *)

let test_persistence_after_unmount () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_default in
  Fs.write_file fs "/p" (Bytes.of_string "persists");
  Fs.unmount fs;
  let fs2 = mount env Fs.Ufs_default in
  check Alcotest.bytes "survives remount" (Bytes.of_string "persists") (Fs.read_file fs2 "/p")

let test_mfs_never_touches_disk () =
  let env = make_env () in
  Disk.reset_stats env.disk;
  let fs = mount env Fs.Mfs in
  Fs.write_file fs "/m" (Pattern.fill ~seed:2 ~len:30_000);
  ignore (Fs.read_file fs "/m");
  Fs.sync fs;
  let s = Disk.stats env.disk in
  (* Mount reads the superblock once; nothing else. *)
  check Alcotest.int "no writes" 0 s.Disk.writes;
  check Alcotest.bool "at most the superblock read" true (s.Disk.reads <= 1)

let test_rio_no_reliability_writes () =
  let env = make_env () in
  let fs = mount env Fs.Rio_policy in
  Disk.reset_stats env.disk;
  Fs.write_file fs "/r" (Pattern.fill ~seed:3 ~len:30_000);
  let fd = Fs.open_file fs "/r" in
  Fs.fsync fs fd (* must return immediately *);
  Fs.close fs fd;
  Fs.sync fs (* must also be a no-op *);
  check Alcotest.int "zero disk writes" 0 (Disk.stats env.disk).Disk.writes

let test_wt_write_synchronous () =
  let env = make_env () in
  let fs = mount env Fs.Wt_write in
  Disk.reset_stats env.disk;
  Fs.write_file fs "/w" (Bytes.of_string "sync me");
  check Alcotest.bool "data hit the disk during write" true
    ((Disk.stats env.disk).Disk.writes > 0);
  check Alcotest.int "nothing pending" 0 (Disk.pending_writes env.disk)

let test_delayed_writes_nothing_until_daemon () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_delayed in
  Disk.reset_stats env.disk;
  Fs.write_file fs "/d" (Pattern.fill ~seed:4 ~len:20_000);
  check Alcotest.int "no writes yet" 0 (Disk.stats env.disk).Disk.writes;
  ignore (Fs.update_daemon_flush fs);
  Disk.drain env.disk;
  check Alcotest.bool "daemon flushed" true ((Disk.stats env.disk).Disk.writes > 0)

let test_update_daemon_fires_on_schedule () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_delayed in
  Fs.write_file fs "/d" (Bytes.of_string "dirty");
  Disk.reset_stats env.disk;
  Engine.advance_by env.engine (Rio_util.Units.sec 31);
  Disk.drain env.disk;
  check Alcotest.bool "30s daemon wrote" true ((Disk.stats env.disk).Disk.writes > 0)

let test_crash_loses_delayed_data () =
  let env = make_env () in
  let fs = mount env Fs.Ufs_delayed in
  Fs.write_file fs "/lost" (Bytes.of_string "never flushed");
  Fs.crash fs;
  ignore (Fsck.run ~disk:env.disk);
  let fs2 = mount (make_env_on env) Fs.Ufs_delayed in
  check Alcotest.bool "file did not survive" false (Fs.exists fs2 "/lost")

let test_wt_write_survives_crash () =
  let env = make_env () in
  let fs = mount env Fs.Wt_write in
  Fs.write_file fs "/kept" (Bytes.of_string "synchronous data");
  Fs.crash fs;
  ignore (Fsck.run ~disk:env.disk);
  let fs2 = mount (make_env_on env) Fs.Wt_write in
  check Alcotest.bytes "write-through survives" (Bytes.of_string "synchronous data")
    (Fs.read_file fs2 "/kept")

let test_rio_idle_daemon_trickles () =
  let env = make_env () in
  let fs = mount env Fs.Rio_idle in
  Disk.reset_stats env.disk;
  Fs.write_file fs "/i" (Pattern.fill ~seed:5 ~len:40_000);
  (* The idle daemon pushes dirty blocks out in the background... *)
  Engine.advance_by env.engine (Rio_util.Units.sec 31);
  Disk.drain env.disk;
  check Alcotest.bool "idle write-back happened" true ((Disk.stats env.disk).Disk.writes > 0);
  (* ...and sync is a durability barrier: dirty blocks ride the
     write-behind pipeline and the barrier drains it. *)
  Fs.write_file fs "/j" (Pattern.fill ~seed:6 ~len:40_000);
  let before = (Disk.stats env.disk).Disk.writes in
  Fs.sync fs;
  check Alcotest.bool "sync flushed through write-behind" true
    ((Disk.stats env.disk).Disk.writes > before)

let test_eviction_under_pressure () =
  (* A tiny pool forces eviction write-back and re-read. *)
  let env = make_env () in
  let fs = mount env Fs.Ufs_default in
  (* Exhaust most of the pool with foreign allocations. *)
  let hold = ref [] in
  let pool_total = Page_alloc.total_pages env.pool_alloc in
  for _ = 1 to pool_total - 8 do
    match Page_alloc.alloc env.pool_alloc with
    | Some p -> hold := p :: !hold
    | None -> ()
  done;
  let data = Pattern.fill ~seed:9 ~len:(20 * 8192) in
  Fs.write_file fs "/pressure" data;
  check Alcotest.bytes "survives eviction" data (Fs.read_file fs "/pressure");
  check Alcotest.bool "evictions happened" true
    ((Block_cache.stats (Fs.data_cache fs)).Block_cache.evictions > 0)

(* Equivalence: absent crashes, every write policy must produce identical
   file-system contents — policies may only differ in WHEN bytes reach the
   disk, never in what a read returns. *)
let test_policy_equivalence () =
  List.iter
    (fun policy ->
      let env = make_env () in
      let fs = mount env policy in
      let mt =
        Rio_workload.Memtest.create
          { Rio_workload.Memtest.default_config with Rio_workload.Memtest.seed = 77 }
      in
      for _ = 1 to 120 do
        Rio_workload.Memtest.step mt ~fs ()
      done;
      check
        (Alcotest.list Alcotest.string)
        (Fs.policy_name policy ^ " matches the model")
        []
        (List.map Rio_workload.Memtest.discrepancy_to_string
           (Rio_workload.Memtest.compare_with_fs mt fs ~exempt:[])))
    Fs.all_policies

(* ---------------- block cache (direct) ---------------- *)

let cache_fixture () =
  let env = make_env () in
  let cache =
    Block_cache.create ~name:"test-cache" ~mem:env.mem ~disk:env.disk ~alloc:env.pool_alloc
      ~hooks:env.hooks
      ~sector_of_blkno:(fun b -> 2048 + (b * Fs_types.sectors_per_block))
      ~backed:true
  in
  (env, cache)

let test_cache_hit_miss () =
  let _, cache = cache_fixture () in
  let e1 = Block_cache.get cache ~blkno:5 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  let e2 = Block_cache.get cache ~blkno:5 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  check Alcotest.bool "same entry" true (e1 == e2);
  let s = Block_cache.stats cache in
  check Alcotest.int "one miss" 1 s.Block_cache.misses;
  check Alcotest.int "one hit" 1 s.Block_cache.hits

let test_cache_fill_from_disk () =
  let env, cache = cache_fixture () in
  let sector = 2048 + (3 * Fs_types.sectors_per_block) in
  Disk.poke env.disk ~sector (Bytes.of_string "from-disk!");
  let e = Block_cache.get cache ~blkno:3 ~owner:Fs_types.Meta ~fill:Block_cache.From_disk in
  check Alcotest.string "filled" "from-disk!"
    (Bytes.sub_string (Phys_mem.blit_out env.mem e.Block_cache.paddr ~len:10) 0 10)

let test_cache_write_back_roundtrip () =
  let env, cache = cache_fixture () in
  let e = Block_cache.get cache ~blkno:7 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  Phys_mem.blit_in env.mem e.Block_cache.paddr (Bytes.of_string "dirty page");
  Block_cache.mark_dirty cache e;
  check Alcotest.int "dirty counted" 1 (Block_cache.dirty_count cache);
  Block_cache.write_back cache e ~sync:true;
  check Alcotest.int "clean after write-back" 0 (Block_cache.dirty_count cache);
  let sector = 2048 + (7 * Fs_types.sectors_per_block) in
  check Alcotest.string "on disk" "dirty page"
    (Bytes.sub_string (Disk.peek env.disk ~sector) 0 10)

let test_cache_lru_eviction_prefers_clean () =
  let env, cache = cache_fixture () in
  (* Exhaust the pool so the next get must evict. *)
  let hold = ref [] in
  (try
     while true do
       match Page_alloc.alloc env.pool_alloc with
       | Some p -> hold := p :: !hold
       | None -> raise Exit
     done
   with Exit -> ());
  (* Give the cache three pages back. *)
  List.iteri (fun i p -> if i < 3 then Page_alloc.free env.pool_alloc p) !hold;
  let e0 = Block_cache.get cache ~blkno:0 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  let _e1 = Block_cache.get cache ~blkno:1 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  let _e2 = Block_cache.get cache ~blkno:2 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  Block_cache.mark_dirty cache e0 (* oldest but dirty: spared if possible *);
  let _e3 = Block_cache.get cache ~blkno:3 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  check Alcotest.bool "dirty block survived" true (Block_cache.lookup cache ~blkno:0 <> None);
  check Alcotest.bool "a clean one was evicted" true
    (Block_cache.lookup cache ~blkno:1 = None || Block_cache.lookup cache ~blkno:2 = None)

let test_cache_pinned_never_evicted () =
  let env, cache = cache_fixture () in
  let hold = ref [] in
  (try
     while true do
       match Page_alloc.alloc env.pool_alloc with
       | Some p -> hold := p :: !hold
       | None -> raise Exit
     done
   with Exit -> ());
  List.iteri (fun i p -> if i < 2 then Page_alloc.free env.pool_alloc p) !hold;
  let pinned = Block_cache.get cache ~blkno:0 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  Block_cache.pin cache pinned;
  let _ = Block_cache.get cache ~blkno:1 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  let _ = Block_cache.get cache ~blkno:2 ~owner:Fs_types.Meta ~fill:Block_cache.Zero in
  check Alcotest.bool "pinned stays" true (Block_cache.lookup cache ~blkno:0 <> None)

let test_cache_note_map_hook () =
  let env = make_env () in
  let mapped = ref [] in
  env.hooks.Rio_fs.Hooks.note_map <-
    (fun ~paddr:_ ~blkno ~owner:_ ~valid:_ -> mapped := blkno :: !mapped);
  let cache =
    Block_cache.create ~name:"hooked" ~mem:env.mem ~disk:env.disk ~alloc:env.pool_alloc
      ~hooks:env.hooks
      ~sector_of_blkno:(fun b -> 2048 + (b * Fs_types.sectors_per_block))
      ~backed:true
  in
  ignore (Block_cache.get cache ~blkno:9 ~owner:Fs_types.Meta ~fill:Block_cache.Zero);
  check (Alcotest.list Alcotest.int) "announced" [ 9 ] !mapped

(* ---------------- journal ---------------- *)

let test_journal_replay () =
  let engine = Engine.create () in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:1 () in
  let j = Journal.create ~disk ~start_sector:100 ~sectors:200 in
  Journal.append j ~sector:1000 (Bytes.of_string "metadata-update-1");
  Journal.append j ~sector:1001 (Bytes.of_string "metadata-update-2");
  Journal.flush_group j;
  Disk.drain disk;
  let applied = Journal.replay ~disk ~start_sector:100 ~sectors:200 in
  check Alcotest.int "both records" 2 applied;
  check Alcotest.string "home sector updated" "metadata-update-1"
    (Bytes.sub_string (Disk.peek disk ~sector:1000) 0 17)

let test_journal_ignores_garbage () =
  let engine = Engine.create () in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:1 () in
  Disk.poke disk ~sector:100 (Bytes.of_string "not a journal record");
  check Alcotest.int "no records" 0 (Journal.replay ~disk ~start_sector:100 ~sectors:200)

let test_journal_crc_guards () =
  let engine = Engine.create () in
  let disk = Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:1 () in
  let j = Journal.create ~disk ~start_sector:100 ~sectors:200 in
  Journal.append j ~sector:1000 (Bytes.of_string "will be torn");
  Journal.flush_group j;
  Disk.drain disk;
  (* Corrupt a payload byte: the CRC must reject the record. *)
  let s = Disk.peek disk ~sector:100 in
  Bytes.set s 20 'X';
  Disk.poke disk ~sector:100 s;
  check Alcotest.int "rejected" 0 (Journal.replay ~disk ~start_sector:100 ~sectors:200)

(* ---------------- fsck ---------------- *)

let crashed_disk_with damage =
  let env = make_env () in
  let fs = mount env Fs.Wt_write in
  Fs.mkdir fs "/d";
  Fs.write_file fs "/d/a" (Bytes.of_string "aaa");
  Fs.write_file fs "/d/b" (Bytes.of_string "bbb");
  Fs.unmount fs;
  damage env.disk;
  env

let test_fsck_clean () =
  let env = crashed_disk_with (fun _ -> ()) in
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "clean" true (Fsck.clean report)

let test_fsck_undecodable_inode () =
  let env =
    crashed_disk_with (fun disk ->
        let sb = Ondisk.read_superblock (Disk.peek disk ~sector:0) in
        (* Trash inode 2's type tag. *)
        let s = Disk.peek disk ~sector:(Ondisk.inode_sector sb 2) in
        Bytes.set_int32_le s 0 99l;
        Disk.poke disk ~sector:(Ondisk.inode_sector sb 2) s)
  in
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "repaired" true (List.length report.Fsck.repairs > 0);
  check Alcotest.bool "recoverable" false report.Fsck.unrecoverable;
  (* And a second run is clean. *)
  check Alcotest.bool "idempotent" true (Fsck.clean (Fsck.run ~disk:env.disk))

let test_fsck_bad_block_pointer () =
  let env =
    crashed_disk_with (fun disk ->
        let sb = Ondisk.read_superblock (Disk.peek disk ~sector:0) in
        let sector = Ondisk.inode_sector sb 2 in
        let s = Disk.peek disk ~sector in
        let inode = Ondisk.read_inode s ~pos:0 in
        inode.Ondisk.blocks.(0) <- 999_999;
        Ondisk.write_inode inode s ~pos:0;
        Disk.poke disk ~sector s)
  in
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "pointer cleared" true
    (List.exists (fun r -> String.length r > 0) report.Fsck.repairs)

let test_fsck_corrupt_superblock () =
  let env = crashed_disk_with (fun disk -> Disk.poke disk ~sector:0 (Bytes.make 512 'X')) in
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "unrecoverable" true report.Fsck.unrecoverable

let test_fsck_bitmap_rebuild () =
  let env =
    crashed_disk_with (fun disk ->
        let sb = Ondisk.read_superblock (Disk.peek disk ~sector:0) in
        (* Claim a pile of blocks that nobody owns. *)
        Disk.poke disk ~sector:sb.Ondisk.bbitmap_start (Bytes.make 512 '\255'))
  in
  let report = Fsck.run ~disk:env.disk in
  check Alcotest.bool "bitmap corrected" true
    (List.exists
       (fun r -> String.length r >= 12 && String.sub r 0 12 = "block bitmap")
       report.Fsck.repairs)

let test_fsck_torn_directory_block () =
  (* A shadow-page flip torn mid-flight: the head sectors of /d's directory
     block (where its entries live) carry garbage while the tail survived.
     Fsck must repair without declaring the volume unrecoverable, and data
     outside the torn block must read back exactly. *)
  let env = make_env () in
  let fs = mount env Fs.Wt_write in
  Fs.mkdir fs "/d";
  Fs.write_file fs "/d/a" (Bytes.of_string "aaa");
  Fs.write_file fs "/d/b" (Bytes.of_string "bbb");
  Fs.write_file fs "/keep" (Bytes.of_string "keep me");
  Fs.unmount fs;
  let disk = env.disk in
  let read_inode_at ino =
    let sb = Ondisk.read_superblock (Disk.peek disk ~sector:0) in
    (sb, Ondisk.read_inode (Disk.peek disk ~sector:(Ondisk.inode_sector sb ino)) ~pos:0)
  in
  let sb, root = read_inode_at Fs_types.root_ino in
  let root_data = Bytes.create Fs_types.block_bytes in
  for i = 0 to Fs_types.sectors_per_block - 1 do
    Bytes.blit
      (Disk.peek disk ~sector:(Ondisk.data_sector sb (root.Ondisk.blocks.(0) - 1) + i))
      0 root_data (i * 512) 512
  done;
  let d_ino =
    match List.assoc_opt "d" (Ondisk.dir_unpack root_data ~pos:0 ~len:root.Ondisk.size) with
    | Some ino -> ino
    | None -> Alcotest.fail "/d missing from root directory"
  in
  let _, d = read_inode_at d_ino in
  let d_sector = Ondisk.data_sector sb (d.Ondisk.blocks.(0) - 1) in
  for i = 0 to (Fs_types.sectors_per_block / 2) - 1 do
    Disk.poke disk ~sector:(d_sector + i) (Bytes.make 512 '\xAB')
  done;
  let report = Fsck.run ~disk in
  check Alcotest.bool "recoverable" false report.Fsck.unrecoverable;
  check Alcotest.bool "repairs reported" true (List.length report.Fsck.repairs > 0);
  check Alcotest.bool "idempotent" true (Fsck.clean (Fsck.run ~disk));
  let fs2 = mount (make_env_on env) Fs.Ufs_default in
  ignore (Fs.readdir fs2 "/d");
  check Alcotest.bytes "untorn data intact" (Bytes.of_string "keep me") (Fs.read_file fs2 "/keep")

let test_fsck_preserves_good_data () =
  let env = crashed_disk_with (fun _ -> ()) in
  ignore (Fsck.run ~disk:env.disk);
  let fs2 = mount (make_env_on env) Fs.Ufs_default in
  check Alcotest.bytes "data intact" (Bytes.of_string "aaa") (Fs.read_file fs2 "/d/a")

let () =
  Alcotest.run "rio_fs"
    [
      ( "ondisk",
        [
          Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
          Alcotest.test_case "superblock bad magic" `Quick test_superblock_bad_magic;
          Alcotest.test_case "inode roundtrip" `Quick test_inode_roundtrip;
          Alcotest.test_case "inode bad tag" `Quick test_inode_bad_tag;
          Alcotest.test_case "free inode" `Quick test_free_inode_detection;
          Alcotest.test_case "dir pack/unpack" `Quick test_dir_pack_unpack;
          Alcotest.test_case "dir corrupt name" `Quick test_dir_corrupt_name;
          qtest prop_dir_roundtrip;
        ] );
      ( "files",
        [
          Alcotest.test_case "create/read/write" `Quick test_create_read_write;
          Alcotest.test_case "multi-block" `Quick test_multi_block_file;
          Alcotest.test_case "pwrite/pread" `Quick test_pwrite_pread;
          Alcotest.test_case "holes" `Quick test_hole_reads_zero;
          Alcotest.test_case "short read" `Quick test_short_read_at_eof;
          Alcotest.test_case "cursor" `Quick test_cursor_semantics;
          Alcotest.test_case "create truncates" `Quick test_create_truncates;
          Alcotest.test_case "max file size" `Quick test_max_file_size;
          Alcotest.test_case "negative offsets" `Quick test_negative_offsets;
          Alcotest.test_case "missing file" `Quick test_missing_file;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "mkdir/readdir" `Quick test_mkdir_readdir;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "rmdir nonempty" `Quick test_rmdir_refuses_nonempty;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename replaces" `Quick test_rename_replaces;
          Alcotest.test_case "stat" `Quick test_stat;
          Alcotest.test_case "many files per dir" `Quick test_many_files_in_dir;
        ] );
      ("statfs", [ Alcotest.test_case "accounting" `Quick test_statfs ]);
      ( "free counts",
        [
          Alcotest.test_case "mount seeds counters per bitmap sector" `Quick
            test_mount_free_counts;
          Alcotest.test_case "statfs matches the per-bit scan" `Quick
            test_statfs_matches_per_bit_scan;
        ] );
      ( "symlinks",
        [
          Alcotest.test_case "follow" `Quick test_symlink_follow;
          Alcotest.test_case "relative target" `Quick test_symlink_relative;
          Alcotest.test_case "directory link" `Quick test_symlink_to_directory;
          Alcotest.test_case "loop detected" `Quick test_symlink_loop_detected;
          Alcotest.test_case "dangling" `Quick test_symlink_dangling;
          Alcotest.test_case "unlink removes link" `Quick test_symlink_unlink_removes_link_only;
          Alcotest.test_case "survives remount" `Quick test_symlink_survives_remount;
        ] );
      ( "hard_links",
        [
          Alcotest.test_case "shares content" `Quick test_link_shares_content;
          Alcotest.test_case "unlink one of two" `Quick test_unlink_one_of_two;
          Alcotest.test_case "no dir links" `Quick test_link_to_directory_rejected;
          Alcotest.test_case "survives remount" `Quick test_links_survive_remount;
          Alcotest.test_case "fsck corrects nlink" `Quick test_fsck_corrects_nlink;
        ] );
      ( "truncate",
        [
          Alcotest.test_case "shrink" `Quick test_truncate_shrink;
          Alcotest.test_case "extend is hole" `Quick test_truncate_extend_is_hole;
          Alcotest.test_case "no resurrection" `Quick test_truncate_then_extend_zeros;
          Alcotest.test_case "frees blocks" `Quick test_truncate_frees_blocks;
        ] );
      ( "policies",
        [
          Alcotest.test_case "persistence" `Quick test_persistence_after_unmount;
          Alcotest.test_case "MFS no disk" `Quick test_mfs_never_touches_disk;
          Alcotest.test_case "Rio no reliability writes" `Quick test_rio_no_reliability_writes;
          Alcotest.test_case "wt-write synchronous" `Quick test_wt_write_synchronous;
          Alcotest.test_case "delayed until daemon" `Quick test_delayed_writes_nothing_until_daemon;
          Alcotest.test_case "daemon schedule" `Quick test_update_daemon_fires_on_schedule;
          Alcotest.test_case "crash loses delayed" `Quick test_crash_loses_delayed_data;
          Alcotest.test_case "rio-idle trickles" `Quick test_rio_idle_daemon_trickles;
          Alcotest.test_case "wt survives crash" `Quick test_wt_write_survives_crash;
          Alcotest.test_case "eviction" `Quick test_eviction_under_pressure;
          Alcotest.test_case "policy equivalence" `Slow test_policy_equivalence;
        ] );
      ( "block_cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "fill from disk" `Quick test_cache_fill_from_disk;
          Alcotest.test_case "write-back roundtrip" `Quick test_cache_write_back_roundtrip;
          Alcotest.test_case "LRU prefers clean" `Quick test_cache_lru_eviction_prefers_clean;
          Alcotest.test_case "pinned never evicted" `Quick test_cache_pinned_never_evicted;
          Alcotest.test_case "note_map hook" `Quick test_cache_note_map_hook;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay" `Quick test_journal_replay;
          Alcotest.test_case "garbage ignored" `Quick test_journal_ignores_garbage;
          Alcotest.test_case "crc guards" `Quick test_journal_crc_guards;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean volume" `Quick test_fsck_clean;
          Alcotest.test_case "undecodable inode" `Quick test_fsck_undecodable_inode;
          Alcotest.test_case "bad block pointer" `Quick test_fsck_bad_block_pointer;
          Alcotest.test_case "corrupt superblock" `Quick test_fsck_corrupt_superblock;
          Alcotest.test_case "bitmap rebuild" `Quick test_fsck_bitmap_rebuild;
          Alcotest.test_case "torn directory block" `Quick test_fsck_torn_directory_block;
          Alcotest.test_case "preserves good data" `Quick test_fsck_preserves_good_data;
        ] );
    ]
