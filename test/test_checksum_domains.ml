(* The checksum tables must be usable from several domains at once on
   first use. Nothing in this executable computes a checksum before the
   workers start, so the workers' first CRCs race on whatever
   initialization the tables need. Tables built lazily on first use
   raised [CamlinternalLazy.Undefined] here when two domains forced them
   together; the allocation while the workers gather keeps minor
   collections (and so stop-the-world pauses inside a force) frequent,
   which makes that race near-certain at eight domains. *)

module Checksum = Rio_util.Checksum

let domains = 8

let test_first_use_from_domains () =
  let data = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      ignore (Sys.opaque_identity (Array.make 200 0))
    done;
    List.init 50 (fun i ->
        ignore (Sys.opaque_identity (Array.make 200 0));
        ( Checksum.crc32 data ~pos:i ~len:(4096 - i),
          Checksum.shift_zeros (Checksum.crc32_raw data ~pos:0 ~len:(64 + i)) ~zeros:(i + 1) ))
  in
  let results = List.map Domain.join (List.init domains (fun _ -> Domain.spawn worker)) in
  (* Every domain computed the same values, and they are the right ones. *)
  List.iteri
    (fun d r ->
      Alcotest.(check (list (pair int int))) (Printf.sprintf "domain %d" d) (List.hd results) r)
    results;
  Alcotest.(check int) "known vector" 0xCBF43926 (Checksum.crc32_string "123456789")

let () =
  Alcotest.run "rio_checksum_domains"
    [
      ( "checksum domains",
        [ Alcotest.test_case "first use from racing domains" `Quick test_first_use_from_domains ]
      );
    ]
