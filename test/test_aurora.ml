module Sched = Msnap_sim.Sched
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Aurora = Msnap_aurora.Aurora

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let in_sim f () = Sched.run f

let mk_dev () =
  Device.of_stripe
    (Stripe.create [ Disk.create ~name:"d0" ~size:(Size.mib 32) ();
      Disk.create ~name:"d1" ~size:(Size.mib 32) () ])

let mk_kernel ?(format = true) ?other_mapped_pages dev =
  let phys = Phys.create () in
  let aspace = Aspace.create phys in
  if format then Store.format dev;
  let store = Store.mount dev in
  (Aurora.Kernel.create ~aspace ~store ?other_mapped_pages (), aspace)

let test_region_write_read () =
  in_sim (fun () ->
      let k, _ = mk_kernel (mk_dev ()) in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:123 (Bytes.of_string "aurora");
      checks "roundtrip" "aurora"
        (Bytes.to_string (Aurora.Region.read r ~off:123 ~len:6)))
    ()

let test_checkpoint_persists () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let k, _ = mk_kernel dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.of_string "ckpt");
      Aurora.Region.checkpoint r;
      (* Reboot. *)
      let k2, _ = mk_kernel ~format:false dev in
      let r2 = Aurora.Region.create k2 ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      checks "recovered" "ckpt"
        (Bytes.to_string (Aurora.Region.read r2 ~off:0 ~len:4)))
    ()

let test_incremental_checkpoint () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let k, _ = mk_kernel dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'a');
      Aurora.Region.checkpoint r;
      (* Dirty exactly one page of many: checkpoint flushes only it. *)
      Aurora.Region.write r ~off:(8 * 4096) (Bytes.make 10 'b');
      let t0 = Sched.now () in
      Aurora.Region.checkpoint r;
      let small = Sched.now () - t0 in
      (* Dirty 12 pages: flush is bigger but both scan the same mapping. *)
      for i = 0 to 11 do
        Aurora.Region.write r ~off:(i * 4096) (Bytes.make 10 'c')
      done;
      let t1 = Sched.now () in
      Aurora.Region.checkpoint r;
      let large = Sched.now () - t1 in
      checkb "incremental: larger dirty set costs more IO" true (large > small))
    ()

let test_breakdown_phases () =
  in_sim (fun () ->
      let k, _ = mk_kernel (mk_dev ()) in
      Aurora.Kernel.register_thread k;
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.mib 8) in
      (* Populate the mapping densely so shadow/collapse have the page
         population a real heap mapping would. *)
      for i = 0 to 1023 do
        Aurora.Region.write r ~off:(i * 4096 * 2) (Bytes.make 64 'p')
      done;
      (* Clean the population, then measure a 64 KiB-dirty checkpoint. *)
      Aurora.Region.checkpoint r;
      Aurora.Region.write r ~off:0 (Bytes.make (Size.kib 64) 'd');
      Metrics.reset ();
      Aurora.Region.checkpoint r;
      let phase p =
        checki (Probe.name p ^ " sampled once") 1 (Metrics.samples p);
        int_of_float (Metrics.mean_ns p)
      in
      let stall = phase Probe.aurora_stall in
      let shadow = phase Probe.aurora_shadow in
      let io = phase Probe.aurora_io in
      let collapse = phase Probe.aurora_collapse in
      checkb "stall > 0" true (stall > 0);
      checkb "shadow > 0" true (shadow > 0);
      checkb "io > 0" true (io > 0);
      checkb "collapse > 0" true (collapse > 0);
      (* Table 2's signature: shadow+collapse dominate the IO. *)
      checkb "shadowing overhead dominates" true (shadow + collapse > io))
    ()

let test_shadow_cost_scales_with_mapping () =
  in_sim (fun () ->
      let k, _ = mk_kernel (mk_dev ()) in
      let ckpt_cost ~name ~va ~pages =
        let r = Aurora.Region.create k ~name ~va ~len:(pages * 4096) in
        (* Populate everything; dirty only one page. *)
        for i = 0 to pages - 1 do
          Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
        done;
        Aurora.Region.checkpoint r;
        Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
        let t0 = Sched.now () in
        Aurora.Region.checkpoint r;
        Sched.now () - t0
      in
      let small = ckpt_cost ~name:"small" ~va:0x5000_0000 ~pages:64 in
      let big = ckpt_cost ~name:"big" ~va:0x6000_0000 ~pages:4096 in
      (* Same 1-page dirty set, 64x mapping: checkpoint must get much
         slower — the fixed cost MemSnap avoids. *)
      checkb "cost scales with mapping size" true (big > 3 * small))
    ()

let test_cow_during_flight () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let k, _ = mk_kernel dev in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      Aurora.Region.write r ~off:0 (Bytes.of_string "OLD!");
      (* Run the checkpoint in a thread; write during its IO window. *)
      let c = Sched.spawn (fun () -> Aurora.Region.checkpoint r) in
      Sched.delay 25_000; (* past shadow, inside IO *)
      Aurora.Region.write r ~off:0 (Bytes.of_string "NEW!");
      Sched.join c;
      checks "memory has new data" "NEW!"
        (Bytes.to_string (Aurora.Region.read r ~off:0 ~len:4));
      let k2, _ = mk_kernel ~format:false dev in
      let r2 = Aurora.Region.create k2 ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      checks "checkpoint captured old data" "OLD!"
        (Bytes.to_string (Aurora.Region.read r2 ~off:0 ~len:4)))
    ()

let test_writes_stall_during_stop_the_world () =
  in_sim (fun () ->
      let k, _ = mk_kernel (mk_dev ()) in
      Aurora.Kernel.register_thread k;
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.mib 4) in
      for i = 0 to 1023 do
        Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'x')
      done;
      let c = Sched.spawn (fun () -> Aurora.Region.checkpoint r) in
      Sched.delay 100; (* let the checkpoint stop the world *)
      let t0 = Sched.now () in
      Aurora.Region.write r ~off:0 (Bytes.make 8 'y');
      let stalled = Sched.now () - t0 in
      Sched.join c;
      checkb "writer stalled through shadowing" true (stalled > 1_000))
    ()

let test_flat_combining () =
  in_sim (fun () ->
      let k, _ = mk_kernel (mk_dev ()) in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 64) in
      let done_count = ref 0 in
      let ts =
        List.init 8 (fun i ->
            Sched.spawn (fun () ->
                Aurora.Region.write r ~off:(i * 4096) (Bytes.make 8 'z');
                Aurora.Region.checkpoint r;
                incr done_count))
      in
      List.iter Sched.join ts;
      checki "all callers complete" 8 !done_count)
    ()

let test_app_checkpoint_slower_than_region () =
  in_sim (fun () ->
      let k, _ = mk_kernel ~other_mapped_pages:65536 (mk_dev ()) in
      let r = Aurora.Region.create k ~name:"r" ~va:0x5000_0000 ~len:(Size.kib 256) in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'a');
      Aurora.Region.checkpoint r;
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'b');
      let t0 = Sched.now () in
      Aurora.Region.checkpoint r;
      let region_ns = Sched.now () - t0 in
      Aurora.Region.write r ~off:0 (Bytes.make 4096 'c');
      let t1 = Sched.now () in
      Aurora.checkpoint_app k;
      let app_ns = Sched.now () - t1 in
      checkb "app checkpoint order of magnitude slower" true (app_ns > 5 * region_ns))
    ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "aurora"
    [
      ( "region",
        [
          tc "write/read" test_region_write_read;
          tc "checkpoint persists" test_checkpoint_persists;
          tc "incremental" test_incremental_checkpoint;
        ] );
      ( "shadowing",
        [
          tc "breakdown phases" test_breakdown_phases;
          tc "cost scales with mapping" test_shadow_cost_scales_with_mapping;
          tc "cow during flight" test_cow_during_flight;
          tc "stop-the-world stalls writers" test_writes_stall_during_stop_the_world;
          tc "flat combining" test_flat_combining;
        ] );
      ("app", [ tc "app ckpt slower" test_app_checkpoint_slower_than_region ]);
    ]
