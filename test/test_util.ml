(* Unit and property tests for Rio_util: PRNG, checksums, stats, tables,
   patterns, units. *)

module Prng = Rio_util.Prng
module Checksum = Rio_util.Checksum
module Stats = Rio_util.Stats
module Table = Rio_util.Table
module Pattern = Rio_util.Pattern
module Units = Rio_util.Units

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- PRNG ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs = List.init 10 (fun _ -> Prng.next a) in
  let ys = List.init 10 (fun _ -> Prng.next b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_prng_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  check Alcotest.int "copy continues identically" (Prng.next a) (Prng.next b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.next a) in
  let ys = List.init 20 (fun _ -> Prng.next b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_prng_bool_varies () =
  let a = Prng.create ~seed:3 in
  let flips = List.init 200 (fun _ -> Prng.bool a) in
  check Alcotest.bool "both outcomes appear" true
    (List.mem true flips && List.mem false flips)

let test_prng_chance_extremes () =
  let a = Prng.create ~seed:3 in
  check Alcotest.bool "p=0 never" false (Prng.chance a 0.);
  check Alcotest.bool "p=1 always" true (Prng.chance a 1.)

let test_prng_choose_weighted () =
  let a = Prng.create ~seed:3 in
  for _ = 1 to 50 do
    let v = Prng.choose_weighted a [| ("x", 0.0); ("y", 1.0) |] in
    check Alcotest.string "zero-weight never chosen" "y" v
  done

let prop_int_in_range =
  QCheck.Test.make ~name:"Prng.int within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_int_in_inclusive =
  QCheck.Test.make ~name:"Prng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let p = Prng.create ~seed in
      let v = Prng.int_in p lo hi in
      v >= lo && v <= hi)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Prng.shuffle (Prng.create ~seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ---------------- checksums ---------------- *)

let test_crc32_known_vector () =
  (* CRC-32 of "123456789" is 0xCBF43926. *)
  check Alcotest.int "standard check value" 0xCBF43926 (Checksum.crc32_string "123456789")

let test_crc32_empty () = check Alcotest.int "empty" 0 (Checksum.crc32_string "")

let test_fletcher_differs_on_change () =
  let b = Bytes.of_string "hello world" in
  let c1 = Checksum.fletcher32 b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 4 'x';
  let c2 = Checksum.fletcher32 b ~pos:0 ~len:(Bytes.length b) in
  check Alcotest.bool "changed byte changes sum" true (c1 <> c2)

let prop_crc_detects_single_bit_flip =
  QCheck.Test.make ~name:"crc32 detects any single bit flip" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 64)) (int_range 0 1000))
    (fun (s, r) ->
      QCheck.assume (String.length s > 0);
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      let before = Checksum.crc32 b ~pos:0 ~len in
      let pos = r mod len and bit = r mod 8 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Checksum.crc32 b ~pos:0 ~len <> before)

let prop_crc_slice_consistent =
  QCheck.Test.make ~name:"crc32 of a slice equals crc32 of the copy" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 4 80))
    (fun s ->
      let b = Bytes.of_string s in
      let mid = Bytes.length b / 2 in
      Checksum.crc32 b ~pos:mid ~len:(Bytes.length b - mid)
      = Checksum.crc32_string (String.sub s mid (String.length s - mid)))

(* ---------------- stats ---------------- *)

let feq = Alcotest.float 1e-9

let test_mean () = check feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stddev () =
  check (Alcotest.float 1e-6) "sample stddev" 1.290994 (Stats.stddev [| 1.; 2.; 3.; 4. |])

let test_percentile_median () =
  check feq "median odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  check feq "median even" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |]);
  check feq "p0 is min" 1. (Stats.percentile [| 3.; 1.; 2. |] 0.);
  check feq "p100 is max" 3. (Stats.percentile [| 3.; 1.; 2. |] 100.)

let test_percentile_edges () =
  check feq "singleton, any p" 7. (Stats.percentile [| 7. |] 33.);
  check feq "interpolates" 1.5 (Stats.percentile [| 1.; 2. |] 50.);
  check feq "p100 lands exactly on the last rank" 4. (Stats.percentile [| 4.; 2.; 1.; 3. |] 100.);
  (* Already-sorted input must not be mutated. *)
  let xs = [| 1.; 2.; 3. |] in
  ignore (Stats.percentile xs 50.);
  check (Alcotest.array feq) "input untouched" [| 1.; 2.; 3. |] xs

let test_percentile_nan () =
  (* Float.compare gives NaN a definite place (it sorts first), so a NaN
     sample cannot scramble the order of the real values the way
     polymorphic compare could: upper percentiles stay meaningful. *)
  check feq "p100 ignores the NaN" 3. (Stats.percentile [| nan; 3.; 1.; 2. |] 100.);
  (* Sorted: [nan; 1; 2; 3] — the median interpolates between 1 and 2. *)
  check feq "median of 3 reals + NaN" 1.5 (Stats.percentile [| 2.; nan; 3.; 1. |] 50.);
  check Alcotest.bool "p0 is the NaN itself" true
    (Float.is_nan (Stats.percentile [| nan; 3.; 1.; 2. |] 0.))

let test_wilson () =
  let lo, hi = Stats.wilson_interval 0 0 in
  check feq "empty lo" 0. lo;
  check feq "empty hi" 1. hi;
  let lo, hi = Stats.wilson_interval 5 10 in
  check Alcotest.bool "contains the point estimate" true (lo < 0.5 && hi > 0.5)

let test_summarize () =
  let s = Stats.summarize [| 2.; 4.; 6. |] in
  check Alcotest.int "n" 3 s.Stats.n;
  check feq "mean" 4. s.Stats.mean;
  check feq "min" 2. s.Stats.min;
  check feq "max" 6. s.Stats.max

(* ---------------- tables ---------------- *)

let test_table_render () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long-cell" ];
  let s = Table.render t in
  check Alcotest.bool "has header" true
    (String.length s > 0 && String.index_opt s 'a' <> None);
  check Alcotest.bool "pads short rows" true (String.index_opt s 'x' <> None)

let test_table_cells () =
  check Alcotest.string "zero renders blank" "" (Table.cell_int 0);
  check Alcotest.string "nonzero renders" "7" (Table.cell_int 7);
  check Alcotest.string "float default" "1.5" (Table.cell_float 1.5)

let test_table_too_many_cells () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "overfull row rejected" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

(* ---------------- pattern ---------------- *)

let test_pattern_deterministic () =
  check Alcotest.bytes "same seed same bytes" (Pattern.fill ~seed:9 ~len:64)
    (Pattern.fill ~seed:9 ~len:64)

let test_pattern_seed_differs () =
  check Alcotest.bool "different seeds differ" true
    (not (Bytes.equal (Pattern.fill ~seed:1 ~len:64) (Pattern.fill ~seed:2 ~len:64)))

let prop_pattern_fill_at_consistent =
  QCheck.Test.make ~name:"fill_at slices the fill stream" ~count:200
    QCheck.(triple small_int (int_range 0 100) (int_range 1 100))
    (fun (seed, off, len) ->
      let whole = Pattern.fill ~seed ~len:(off + len) in
      Bytes.equal (Bytes.sub whole off len) (Pattern.fill_at ~seed ~offset:off ~len))

(* The kernel against the definition: byte [i] of a slice is
   [byte_at ~seed (offset + i)], through [fill_at] and through
   [fill_into] at a nonzero position, for any int seed (negative ones and
   ones past 2^32 included), offsets up to 2^30 and lengths 0-20_000. *)
let prop_pattern_matches_byte_at =
  QCheck.Test.make ~name:"fill_at and fill_into follow byte_at" ~count:200
    QCheck.(quad int (int_bound (1 lsl 30)) (int_bound 20_000) (int_range 1 100))
    (fun (seed, offset, len, pos) ->
      let expect = Bytes.init len (fun i -> Pattern.byte_at ~seed (offset + i)) in
      let buf = Bytes.make (pos + len + 7) '\x5a' in
      Pattern.fill_into ~seed ~offset buf ~pos ~len;
      Bytes.equal expect (Pattern.fill_at ~seed ~offset ~len)
      && Bytes.equal expect (Bytes.sub buf pos len)
      && Bytes.equal (Bytes.sub buf 0 pos) (Bytes.make pos '\x5a')
      && Bytes.equal (Bytes.sub buf (pos + len) 7) (Bytes.make 7 '\x5a'))

(* CRC-32s of two slices, recorded before the kernel was rewritten. *)
let test_pattern_golden () =
  let crc b = Checksum.crc32 b ~pos:0 ~len:(Bytes.length b) in
  check Alcotest.int "fill ~seed:7 ~len:40_000" 0xEA03FA31 (crc (Pattern.fill ~seed:7 ~len:40_000));
  check Alcotest.int "fill_at ~seed:(-123456789) ~offset:1_000_003 ~len:8_191" 0xBA59D23E
    (crc (Pattern.fill_at ~seed:(-123456789) ~offset:1_000_003 ~len:8_191))

let test_pattern_fill_into_bounds () =
  let b = Bytes.create 10 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d rejected" pos len)
        (Invalid_argument "Pattern.fill_into")
        (fun () -> Pattern.fill_into ~seed:1 ~offset:0 b ~pos ~len))
    [ (-1, 2); (0, -1); (5, 6); (11, 0) ]

(* ---------------- units ---------------- *)

let test_units () =
  check Alcotest.int "sec" 1_000_000 (Units.sec 1);
  check Alcotest.int "msec" 2_000 (Units.msec 2);
  check Alcotest.int "minutes" 60_000_000 (Units.minutes 1);
  check feq "roundtrip" 1.5 (Units.sec_of_usec (Units.usec_of_sec_f 1.5));
  check Alcotest.int "mb" (1024 * 1024) (Units.mb 1)

let () =
  Alcotest.run "rio_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "bool varies" `Quick test_prng_bool_varies;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "choose_weighted skips zero weight" `Quick test_prng_choose_weighted;
          qtest prop_int_in_range;
          qtest prop_int_in_inclusive;
          qtest prop_shuffle_permutation;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
          Alcotest.test_case "fletcher detects change" `Quick test_fletcher_differs_on_change;
          qtest prop_crc_detects_single_bit_flip;
          qtest prop_crc_slice_consistent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentiles" `Quick test_percentile_median;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "percentile with NaN" `Quick test_percentile_nan;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "overfull row" `Quick test_table_too_many_cells;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "deterministic" `Quick test_pattern_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_pattern_seed_differs;
          qtest prop_pattern_fill_at_consistent;
          qtest prop_pattern_matches_byte_at;
          Alcotest.test_case "golden CRCs" `Quick test_pattern_golden;
          Alcotest.test_case "fill_into bounds" `Quick test_pattern_fill_into_bounds;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
    ]
