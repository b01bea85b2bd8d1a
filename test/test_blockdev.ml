module Sched = Msnap_sim.Sched
module Costs = Msnap_sim.Costs
module Size = Msnap_util.Size
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_bytes = Alcotest.(check string)

let in_sim f () = Sched.run f

let mk_disk ?(size = Size.mib 4) () = Disk.create ~size ()

let test_write_read () =
  in_sim (fun () ->
      let d = mk_disk () in
      let data = Bytes.of_string "hello block device" in
      Disk.write d ~off:8192 data;
      let back = Disk.read d ~off:8192 ~len:(Bytes.length data) in
      check_bytes "roundtrip" "hello block device" (Bytes.to_string back))
    ()

let test_latency_model () =
  in_sim (fun () ->
      let d = mk_disk () in
      let t0 = Sched.now () in
      Disk.write d ~off:0 (Bytes.create 4096);
      let t = Sched.now () - t0 in
      (* 4 KiB: base + xfer = 15500 + 1843 *)
      checki "4k latency" (Costs.disk_base + Costs.disk_xfer 4096) t)
    ()

let test_vectored_single_command () =
  in_sim (fun () ->
      let d = mk_disk () in
      let t0 = Sched.now () in
      Disk.writev d
        [ (0, Disk.Slice.of_bytes (Bytes.create 4096));
          (65536, Disk.Slice.of_bytes (Bytes.create 4096)) ];
      let vectored = Sched.now () - t0 in
      let t1 = Sched.now () in
      Disk.write d ~off:0 (Bytes.create 4096);
      Disk.write d ~off:65536 (Bytes.create 4096);
      let separate = Sched.now () - t1 in
      checkb "one base latency, not two" true (vectored < separate);
      checki "vectored = base + 2 xfers" (Costs.disk_base + Costs.disk_xfer 8192)
        vectored)
    ()

let test_channels_limit_concurrency () =
  in_sim (fun () ->
      let d = mk_disk () in
      (* 2x disk_channels concurrent 4 KiB writes: second wave queues. *)
      let n = 2 * Costs.disk_channels in
      let t0 = Sched.now () in
      let ts =
        List.init n (fun i ->
            Sched.spawn (fun () ->
                Disk.write d ~off:(i * 4096) (Bytes.create 4096)))
      in
      List.iter Sched.join ts;
      let elapsed = Sched.now () - t0 in
      let one = Costs.disk_base + Costs.disk_xfer 4096 in
      checki "two service rounds" (2 * one) elapsed)
    ()

let test_out_of_range () =
  in_sim (fun () ->
      let d = mk_disk ~size:8192 () in
      let raised =
        try
          Disk.write d ~off:8000 (Bytes.create 4096);
          false
        with Invalid_argument _ -> true
      in
      checkb "raises" true raised)
    ()

let test_stats () =
  in_sim (fun () ->
      let d = mk_disk () in
      Disk.write d ~off:0 (Bytes.create 4096);
      ignore (Disk.read d ~off:0 ~len:512);
      let s = Disk.stats d in
      checki "writes" 1 s.Disk.writes;
      checki "reads" 1 s.Disk.reads;
      checki "bytes written" 4096 s.Disk.bytes_written;
      checki "bytes read" 512 s.Disk.bytes_read;
      Disk.reset_stats d;
      checki "reset" 0 (Disk.stats d).Disk.writes)
    ()

let test_inflight_write_mutation_detected () =
  (* [write] references the caller's bytes like every other write, so
     they fall under the ownership rule: mutating them while the command
     is in flight is a violation, and the debug checks raise it at
     commit. *)
  in_sim (fun () ->
      let d = mk_disk () in
      let b = Bytes.of_string "AAAA" in
      let caught = ref "" in
      let t =
        Sched.spawn (fun () ->
            try Disk.write d ~off:0 b with Invalid_argument m -> caught := m)
      in
      (* Let the writer submit, then mutate while the IO is in flight. *)
      Sched.delay 1;
      Bytes.set b 0 'Z';
      Sched.join t;
      checkb "ownership violation raised" true
        (String.starts_with ~prefix:"nvme: ownership violation" !caught))
    ()

let test_power_failure_blocks_io () =
  in_sim (fun () ->
      let d = mk_disk () in
      Disk.fail_power d ~torn_seed:1;
      let raised = try Disk.write d ~off:0 (Bytes.create 512); false with Disk.Powered_off -> true in
      checkb "write rejected" true raised;
      Disk.restore_power d;
      Disk.write d ~off:0 (Bytes.create 512))
    ()

let test_torn_write () =
  in_sim (fun () ->
      let d = mk_disk () in
      (* Fill with 'O', then crash mid-flight of an 8-sector overwrite. *)
      Disk.write d ~off:0 (Bytes.make 4096 'O');
      let writer =
        Sched.spawn (fun () ->
            try Disk.write d ~off:0 (Bytes.make 4096 'N')
            with Disk.Powered_off -> ())
      in
      (* Let the write get half way. *)
      Sched.delay ((Costs.disk_base + Costs.disk_xfer 4096) / 2);
      Disk.fail_power d ~torn_seed:7;
      Sched.join writer;
      Disk.restore_power d;
      let back = Bytes.to_string (Disk.read d ~off:0 ~len:4096) in
      (* Every sector is entirely old or entirely new. *)
      let sectors = 4096 / Costs.sector in
      let mixed = ref false and any_new = ref false and any_old = ref false in
      for s = 0 to sectors - 1 do
        let seg = String.sub back (s * Costs.sector) Costs.sector in
        let all c = String.for_all (fun x -> x = c) seg in
        if all 'N' then any_new := true
        else if all 'O' then any_old := true
        else mixed := true
      done;
      checkb "sector atomicity" false !mixed;
      checkb "prefix semantics: new sectors before old" true
        (let seen_old = ref false in
         let ok = ref true in
         for s = 0 to sectors - 1 do
           let seg = String.sub back (s * Costs.sector) Costs.sector in
           if String.for_all (fun x -> x = 'O') seg then seen_old := true
           else if !seen_old then ok := false
         done;
         !ok);
      ignore (!any_new, !any_old))
    ()

(* --- Stripe --- *)

let mk_stripe ?(unit_size = Size.kib 64) ?(n = 2) ?(disk_size = Size.mib 4) () =
  Stripe.create ~unit_size
    (List.init n (fun i -> Disk.create ~name:(Printf.sprintf "d%d" i) ~size:disk_size ()))

let test_stripe_roundtrip () =
  in_sim (fun () ->
      let s = mk_stripe () in
      let rng = Msnap_util.Rng.create 5 in
      (* Spans several stripe units and a device boundary. *)
      let data = Msnap_util.Rng.bytes rng (Size.kib 200) in
      Stripe.write s ~off:(Size.kib 30) data;
      let back = Stripe.read s ~off:(Size.kib 30) ~len:(Size.kib 200) in
      checkb "roundtrip" true (Bytes.equal data back))
    ()

let test_stripe_size () =
  in_sim (fun () ->
      let s = mk_stripe () in
      checki "size" (Size.mib 8) (Stripe.size s))
    ()

let test_stripe_parallelism () =
  in_sim (fun () ->
      let s = mk_stripe () in
      (* A 128 KiB aligned write spans both devices: latency ~ one 64 KiB
         command, not one 128 KiB command. *)
      let t0 = Sched.now () in
      Stripe.write s ~off:0 (Bytes.create (Size.kib 128));
      let t = Sched.now () - t0 in
      let one_dev = Costs.disk_base + Costs.disk_xfer (Size.kib 64) in
      checkb "parallel across devices" true (t <= one_dev + 2_000))
    ()

let test_stripe_single_unit_one_device () =
  in_sim (fun () ->
      let s = mk_stripe () in
      Stripe.write s ~off:0 (Bytes.create (Size.kib 64));
      let st = Stripe.stats s in
      checki "one command" 1 st.Disk.writes)
    ()

let test_stripe_crash () =
  in_sim (fun () ->
      let s = mk_stripe () in
      Stripe.write s ~off:0 (Bytes.make 512 'A');
      Stripe.fail_power s ~torn_seed:3;
      let raised = try Stripe.write s ~off:0 (Bytes.create 512); false with Disk.Powered_off -> true in
      checkb "off" true raised;
      Stripe.restore_power s;
      check_bytes "data survives" (String.make 512 'A')
        (Bytes.to_string (Stripe.read s ~off:0 ~len:512)))
    ()

(* --- zero-copy crash equivalence --- *)

module Slice = Msnap_util.Slice

(* Replay one crashing vectored write and return the whole recovered
   medium. [copy_at_issue] selects the reference data plane (the
   pre-slice implementation: snapshot every segment into a private
   buffer when the command is issued); [false] is the zero-copy path
   under test, whose slices alias [backing] directly. Crash timing and
   the torn-prefix choice depend only on geometry, elapsed time and the
   seed — identical across both variants — so equal recovered media
   proves the commit/tear-time copy from live slices is equivalent to an
   issue-time snapshot. *)
let crash_replay ~copy_at_issue ~disk_size ~init ~segs ~backing ~delay ~seed =
  Sched.run (fun () ->
      let d = Disk.create ~size:disk_size () in
      List.iter (fun (off, data) -> Disk.write d ~off data) init;
      let slices =
        List.map
          (fun (off, pos, len) ->
            let s =
              if copy_at_issue then Slice.of_bytes (Bytes.sub backing pos len)
              else Slice.make backing ~pos ~len
            in
            (off, s))
          segs
      in
      let writer =
        Sched.spawn (fun () ->
            try Disk.writev d slices with Disk.Powered_off -> ())
      in
      Sched.delay delay;
      Disk.fail_power d ~torn_seed:seed;
      Sched.join writer;
      Disk.restore_power d;
      Disk.read d ~off:0 ~len:disk_size)

let test_torn_prefix_sweep () =
  (* One 8-sector command over a sweep of crash points and seeds: every
     sector-prefix length 0..8 must be realized by some crash, and every
     recovered medium must equal the copy-at-issue reference. *)
  let nsec = 8 in
  let len = nsec * Costs.sector in
  let disk_size = Size.kib 64 in
  let init = [ (0, Bytes.make len 'O') ] in
  (* Sector k of the payload is filled with byte k+1, so the committed
     prefix length can be read back from the medium. *)
  let backing =
    Bytes.init len (fun i -> Char.chr (1 + (i / Costs.sector)))
  in
  let segs = [ (0, 0, len) ] in
  let dur = Costs.disk_base + Costs.disk_xfer len in
  let seen = Array.make (nsec + 1) false in
  for step = 0 to 16 do
    let delay = dur * step / 16 in
    for seed = 0 to 15 do
      let zc =
        crash_replay ~copy_at_issue:false ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      let ref_ =
        crash_replay ~copy_at_issue:true ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      checkb "zero-copy recovery = copy-at-issue recovery" true
        (Bytes.equal zc ref_);
      (* Count the committed prefix and check it is a strict prefix:
         new sectors, then old, never interleaved. *)
      let prefix = ref 0 and in_prefix = ref true in
      for s = 0 to nsec - 1 do
        let c = Bytes.get zc (s * Costs.sector) in
        if !in_prefix && c = Char.chr (1 + s) then incr prefix
        else begin
          in_prefix := false;
          checkb "suffix is old data" true (c = 'O')
        end
      done;
      seen.(!prefix) <- true
    done
  done;
  Array.iteri
    (fun i hit ->
      checkb (Printf.sprintf "prefix of %d sectors realized" i) true hit)
    seen

(* Property: for arbitrary scatter lists whose segments alias (and
   overlap within) one shared backing buffer, a crash at an arbitrary
   point recovers the same medium as the pre-slice copy-at-issue
   implementation. *)
let prop_zero_copy_crash_equivalence =
  let open QCheck in
  let gen =
    Gen.(
      let* nsegs = int_range 1 4 in
      let backing_len = 16 * Costs.sector in
      let* segs =
        list_repeat nsegs
          (let* len = int_range 1 (4 * Costs.sector) in
           let* pos = int_range 0 (backing_len - len) in
           let* off_sec = int_range 0 48 in
           return (off_sec * Costs.sector, pos, len))
      in
      let* delay_pct = int_range 0 100 in
      let* seed = int_range 0 1_000_000 in
      return (segs, delay_pct, seed))
  in
  QCheck.Test.make ~count:100
    ~name:"crashing writev over aliased slices = copy-at-issue recovery"
    (make gen)
    (fun (segs, delay_pct, seed) ->
      let disk_size = Size.kib 64 in
      let backing_len = 16 * Costs.sector in
      let rng = Msnap_util.Rng.create (seed lxor 0xA11A5) in
      let backing = Msnap_util.Rng.bytes rng backing_len in
      let init = [ (0, Msnap_util.Rng.bytes rng disk_size) ] in
      let total = List.fold_left (fun a (_, _, l) -> a + l) 0 segs in
      let dur = Costs.disk_base + Costs.disk_xfer total in
      let delay = dur * delay_pct / 100 in
      let zc =
        crash_replay ~copy_at_issue:false ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      let ref_ =
        crash_replay ~copy_at_issue:true ~disk_size ~init ~segs ~backing
          ~delay ~seed
      in
      Bytes.equal zc ref_)

(* Property: splitting one contiguous write into adjacent segments (the
   shape the object store's sorted batches produce) must be equivalent to
   the single merged write — same recovered image AND same virtual-time
   cost — no matter where the cuts fall or where the run lands relative
   to stripe-unit and device boundaries. This pins down the write
   coalescing in Stripe: merging is a host-side optimization. *)
let prop_coalesce_equivalence =
  let open QCheck in
  let gen =
    Gen.(
      let* total_sec = int_range 1 64 in
      let* ncuts = int_range 0 6 in
      let* cuts = list_repeat ncuts (int_range 1 (max 1 ((total_sec * Costs.sector) - 1))) in
      let* off_sec = int_range 0 192 in
      let* seed = int_range 0 1_000_000 in
      return (total_sec, cuts, off_sec, seed))
  in
  QCheck.Test.make ~count:100
    ~name:"adjacent split writev = merged write (image and cost)"
    (make gen)
    (fun (total_sec, cuts, off_sec, seed) ->
      let len = total_sec * Costs.sector in
      let off = off_sec * Costs.sector in
      let backing = Msnap_util.Rng.bytes (Msnap_util.Rng.create seed) len in
      let bounds =
        List.sort_uniq compare ((0 :: List.filter (fun c -> c < len) cuts) @ [ len ])
      in
      let rec to_segs = function
        | a :: (b :: _ as tl) ->
          (off + a, Slice.make backing ~pos:a ~len:(b - a)) :: to_segs tl
        | _ -> []
      in
      let run segs =
        Sched.run (fun () ->
            let s = mk_stripe ~disk_size:(Size.kib 256) () in
            let t0 = Sched.now () in
            Stripe.writev s segs;
            let dur = Sched.now () - t0 in
            (dur, Stripe.read s ~off ~len))
      in
      let split = run (to_segs bounds) in
      let merged = run [ (off, Slice.make backing ~pos:0 ~len) ] in
      fst split = fst merged && Bytes.equal (snd split) (snd merged))

(* Property: vectored commands of device-adjacent segments, each from
   its own buffer (so the commit copies every segment separately), at
   byte-unaligned offsets that cross the medium's 256 KiB chunks, read
   back equal to a flat model; chunks no write touched read back as
   zeros. *)
let prop_writev_flat_model =
  let open QCheck in
  let disk_size = Size.mib 1 and chunk = Size.kib 256 in
  let gen =
    Gen.(
      let* ncmds = int_range 1 3 in
      list_repeat ncmds
        (let* start = int_range 0 (disk_size - 1) in
         let* nsegs = int_range 1 5 in
         let* lens = list_repeat nsegs (int_range 0 (Size.kib 160)) in
         let* seed = int_range 0 1_000_000 in
         return (start, lens, seed)))
  in
  QCheck.Test.make ~count:60
    ~name:"writev of adjacent distinct-buffer segments = flat model"
    (make gen)
    (fun cmds ->
      let model = Bytes.make disk_size '\000' in
      let touched = Array.make (disk_size / chunk) false in
      let back =
        Sched.run (fun () ->
            let d = mk_disk ~size:disk_size () in
            List.iter
              (fun (start, lens, seed) ->
                let rng = Msnap_util.Rng.create seed in
                let off = ref start in
                let segs =
                  List.filter_map
                    (fun len ->
                      let len = Int.min len (disk_size - !off) in
                      if len = 0 then None
                      else begin
                        (* Each segment sits at an odd position inside its
                           own larger buffer. *)
                        let buf = Msnap_util.Rng.bytes rng (len + 3) in
                        let seg = (!off, Slice.make buf ~pos:1 ~len) in
                        Bytes.blit buf 1 model !off len;
                        for c = !off / chunk to (!off + len - 1) / chunk do
                          touched.(c) <- true
                        done;
                        off := !off + len;
                        Some seg
                      end)
                    lens
                in
                Disk.writev d segs)
              cmds;
            Disk.read d ~off:0 ~len:disk_size)
      in
      let zero_chunks_ok =
        Array.to_list touched
        |> List.mapi (fun c t -> (c, t))
        |> List.for_all (fun (c, t) ->
               t
               || Bytes.for_all (fun ch -> ch = '\000')
                    (Bytes.sub back (c * chunk) chunk))
      in
      Bytes.equal back model && zero_chunks_ok)

(* --- Device: one interface over every backend --- *)

(* The packed Device must forward every operation unchanged: same data,
   same virtual-time cost, same size as calling the backend directly. *)
let test_device_stripe_parity () =
  let mk () =
    Stripe.create
      [ Disk.create ~size:(Size.mib 4) (); Disk.create ~size:(Size.mib 4) () ]
  in
  let direct =
    Sched.run (fun () ->
        let s = mk () in
        Stripe.write s ~off:0 (Bytes.make (Size.kib 256) 'w');
        let b = Stripe.read s ~off:(Size.kib 64) ~len:128 in
        Stripe.flush s;
        (Bytes.to_string b, Sched.now (), Stripe.size s))
  in
  let wrapped =
    Sched.run (fun () ->
        let dev = Device.of_stripe (mk ()) in
        Device.write dev ~off:0 (Bytes.make (Size.kib 256) 'w');
        let b = Device.read dev ~off:(Size.kib 64) ~len:128 in
        Device.flush dev;
        (Bytes.to_string b, Sched.now (), Device.size dev))
  in
  Alcotest.(check (triple string int int)) "stripe parity" direct wrapped

let test_device_power_failure () =
  Sched.run (fun () ->
      let dev = Device.of_stripe (Stripe.create [ mk_disk () ]) in
      Device.write dev ~off:0 (Bytes.make 512 'x');
      Device.fail_power dev ~torn_seed:1;
      checkb "write raises when off" true
        (match Device.write dev ~off:0 (Bytes.make 512 'y') with
        | () -> false
        | exception Disk.Powered_off -> true);
      Device.restore_power dev;
      check_bytes "survives the cycle" (String.make 512 'x')
        (Bytes.to_string (Device.read dev ~off:0 ~len:512)))

let test_device_barrier_orders () =
  (* Both current backends implement barrier as a queue drain: after it
     returns, everything previously issued is durable. *)
  Sched.run (fun () ->
      let dev = Device.of_stripe
          (Stripe.create [ Disk.create ~size:(Size.mib 4) () ])
      in
      Device.write dev ~off:0 (Bytes.make 4096 'b');
      Device.barrier dev;
      Device.fail_power dev ~torn_seed:3;
      Device.restore_power dev;
      check_bytes "barriered write durable" (String.make 8 'b')
        (Bytes.to_string (Device.read dev ~off:0 ~len:8)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "blockdev"
    [
      ( "disk",
        [
          tc "write/read" test_write_read;
          tc "latency model" test_latency_model;
          tc "vectored IO" test_vectored_single_command;
          tc "channel limit" test_channels_limit_concurrency;
          tc "out of range" test_out_of_range;
          tc "stats" test_stats;
          tc "in-flight write mutation detected"
            test_inflight_write_mutation_detected;
          tc "power failure" test_power_failure_blocks_io;
          tc "torn write" test_torn_write;
          tc "torn prefix sweep (zero-copy = snapshot)" test_torn_prefix_sweep;
          QCheck_alcotest.to_alcotest prop_zero_copy_crash_equivalence;
          QCheck_alcotest.to_alcotest prop_writev_flat_model;
        ] );
      ( "stripe",
        [
          tc "roundtrip" test_stripe_roundtrip;
          tc "size" test_stripe_size;
          tc "parallelism" test_stripe_parallelism;
          tc "single unit" test_stripe_single_unit_one_device;
          tc "crash" test_stripe_crash;
          QCheck_alcotest.to_alcotest prop_coalesce_equivalence;
        ] );
      ( "device",
        [
          tc "stripe parity" test_device_stripe_parity;
          tc "power failure through wrapper" test_device_power_failure;
          tc "barrier makes prior IO durable" test_device_barrier_orders;
        ] );
    ]
