(* The timing device wrapper must leave every simulated value unchanged:
   the same scripted simulations, run on the bare stripe and on the
   wrapped one (with span recording on), must agree on every virtual
   latency, the final clock, the CPU buckets, the device statistics and
   the bytes read back. *)

open Perfbench
open Common
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Store = Msnap_objstore.Store
module Msnap = Msnap_core.Msnap
module Fs = Msnap_fs.Fs

type outcome = {
  lat : int list;
  clock : int;
  acct : (string * int) list;
  stats : Disk.stats;
  data : string;
}

(* [wrapped] selects the device; the script is otherwise identical. *)
let simulate ~wrapped script =
  traced := wrapped;
  Fun.protect
    ~finally:(fun () -> traced := false)
    (fun () ->
      run_sim (fun () ->
          let dev = mk_dev ~mib:64 () in
          if wrapped then Span.start_phase ();
          let lat, data = script dev in
          if wrapped then Span.end_phase ();
          {
            lat;
            clock = Sched.now ();
            acct = Sched.account_report ();
            stats = Device.stats dev;
            data;
          }))

let timed f =
  let t0 = Sched.now () in
  f ();
  Sched.now () - t0

(* MemSnap: dirty pages, persist synchronously and asynchronously, then
   read the region back. *)
let msnap_script dev =
  let phys = Phys.create () in
  let aspace = Aspace.create phys in
  Store.format dev;
  let k = Msnap.init ~store:(Store.mount dev) in
  Msnap.attach k aspace;
  let md = Msnap.open_region k ~name:"r" ~len:(256 * 4096) () in
  let rng = Rng.create 7 in
  let lat =
    List.init 20 (fun i ->
        timed (fun () ->
            for _ = 0 to i do
              Msnap.write k md ~off:(Rng.int rng 256 * 4096) (Rng.bytes rng 512)
            done;
            let mode = if i mod 3 = 0 then `Async else `Sync in
            ignore (Msnap.persist k ~region:md ~mode ())))
  in
  Sched.delay 10_000_000;
  (lat, Bytes.to_string (Msnap.read k md ~off:0 ~len:(256 * 4096)))

(* FFS: buffered writes with read-modify-write, fsync, and reads. *)
let fs_script dev =
  let fs = Fs.mkfs dev ~kind:Fs.Ffs in
  Fs.set_cache_capacity fs 4;
  let f = Fs.open_file fs "f" in
  let rng = Rng.create 9 in
  let lat =
    List.init 30 (fun _ ->
        timed (fun () ->
            Fs.write fs f ~off:(Rng.int rng 512 * 4096) (Rng.bytes rng 4096);
            Fs.fsync fs f))
  in
  (lat, Bytes.to_string (Fs.read fs f ~off:0 ~len:(512 * 4096)))

let same name script () =
  let bare = simulate ~wrapped:false script in
  let wrapped = simulate ~wrapped:true script in
  Alcotest.(check (list int)) (name ^ " latencies") bare.lat wrapped.lat;
  Alcotest.(check int) (name ^ " final clock") bare.clock wrapped.clock;
  Alcotest.(check (list (pair string int))) (name ^ " cpu buckets") bare.acct wrapped.acct;
  Alcotest.(check bool) (name ^ " device stats") true (bare.stats = wrapped.stats);
  Alcotest.(check bool) (name ^ " contents") true (String.equal bare.data wrapped.data);
  Alcotest.(check bool) (name ^ " commands were timed") true (Span.count Timed_dev.cmd > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "timed device",
        [
          Alcotest.test_case "msnap simulation unchanged" `Quick (same "msnap" msnap_script);
          Alcotest.test_case "ffs simulation unchanged" `Quick (same "ffs" fs_script);
        ] );
    ]
