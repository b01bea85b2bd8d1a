module Sched = Msnap_sim.Sched
module Size = Msnap_util.Size
module Rng = Msnap_util.Rng
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Fs = Msnap_fs.Fs

(* Run the whole suite with the data plane's ownership-rule checks on:
   the device checksums every lent slice at issue and re-verifies at
   commit/tear, so any zero-copy violation fails the tests loudly. *)
let () = Msnap_util.Slice.debug_checks := true

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let in_sim f () = Sched.run f

let mk_fs ?(kind = Fs.Ffs) ?(mib = 64) () =
  let dev =
    Device.of_stripe
    (Stripe.create [ Disk.create ~name:"d0" ~size:(Size.mib mib) ();
        Disk.create ~name:"d1" ~size:(Size.mib mib) () ])
  in
  Fs.mkfs dev ~kind

let test_write_read_roundtrip kind () =
  in_sim (fun () ->
      let fs = mk_fs ~kind () in
      let f = Fs.open_file fs "file" in
      Fs.write fs f ~off:1000 (Bytes.of_string "hello fs");
      checks "roundtrip" "hello fs"
        (Bytes.to_string (Fs.read fs f ~off:1000 ~len:8));
      checki "size" 1008 (Fs.size fs f))
    ()

let test_holes_read_zero () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "sparse" in
      Fs.write fs f ~off:(Size.mib 1) (Bytes.of_string "tail");
      let hole = Fs.read fs f ~off:0 ~len:16 in
      checkb "zeros" true (Bytes.for_all (fun c -> c = '\000') hole))
    ()

let test_fsync_persists_to_device kind () =
  in_sim (fun () ->
      let fs = mk_fs ~kind () in
      let f = Fs.open_file fs "durable" in
      Fs.write fs f ~off:0 (Bytes.make 8192 'D');
      let before = Fs.bytes_written_to_disk fs in
      Fs.fsync fs f;
      checkb "io happened" true (Fs.bytes_written_to_disk fs > before);
      (* Clean after fsync: another fsync writes nothing. *)
      let mid = Fs.bytes_written_to_disk fs in
      Fs.fsync fs f;
      checki "no new data io" mid (Fs.bytes_written_to_disk fs))
    ()

let test_read_back_after_eviction () =
  in_sim (fun () ->
      let fs = mk_fs () in
      Fs.set_cache_capacity fs 4;
      let f = Fs.open_file fs "big" in
      let rng = Rng.create 9 in
      let chunk = Rng.bytes rng (Fs.fs_block_size fs) in
      (* Fill 8 fs-blocks (twice the cache), fsync, then read the first
         back: it must come from the device, not the cache. *)
      for i = 0 to 7 do
        Fs.write fs f ~off:(i * Fs.fs_block_size fs) chunk;
        Fs.fsync fs f
      done;
      checkb "evicted" true (Fs.resident_blocks fs f < 8);
      let back = Fs.read fs f ~off:0 ~len:(Fs.fs_block_size fs) in
      checkb "device copy correct" true (Bytes.equal chunk back))
    ()

let test_rmw_on_uncached_partial_write () =
  in_sim (fun () ->
      let fs = mk_fs () in
      Fs.set_cache_capacity fs 2;
      let f = Fs.open_file fs "rmw" in
      let bs = Fs.fs_block_size fs in
      (* Write 8 full blocks, fsync, evict. *)
      for i = 0 to 7 do
        Fs.write fs f ~off:(i * bs) (Bytes.make bs 'A')
      done;
      Fs.fsync fs f;
      let rmw0 = Fs.rmw_reads fs in
      (* Sub-block write to an evicted block: read-modify-write. *)
      Fs.write fs f ~off:0 (Bytes.of_string "B");
      checkb "rmw read charged" true (Fs.rmw_reads fs > rmw0);
      Fs.fsync fs f;
      (* Old contents preserved around the small write. *)
      let back = Fs.read fs f ~off:0 ~len:4 in
      checks "merged" "BAAA" (Bytes.to_string back))
    ()

let test_random_slower_than_seq kind () =
  in_sim (fun () ->
      (* The Table 6 effect: N random 4 KiB page writes + fsync cost much
         more than the same bytes written sequentially. *)
      let fs = mk_fs ~kind ~mib:256 () in
      Fs.set_cache_capacity fs 8;
      let f = Fs.open_file fs "bench" in
      let bs = Fs.fs_block_size fs in
      (* Preallocate a 64 MiB file. *)
      let prealloc = Bytes.make bs 'P' in
      for i = 0 to (Size.mib 64 / bs) - 1 do
        Fs.write fs f ~off:(i * bs) prealloc;
        if i mod 8 = 7 then Fs.fsync fs f
      done;
      Fs.fsync fs f;
      let rng = Rng.create 4 in
      let page = Bytes.make 4096 'x' in
      let t0 = Sched.now () in
      for i = 0 to 15 do
        Fs.write fs f ~off:(i * 4096) page
      done;
      Fs.fsync fs f;
      let seq = Sched.now () - t0 in
      let t1 = Sched.now () in
      for _ = 0 to 15 do
        let blk = Rng.int rng (Size.mib 64 / 4096) in
        Fs.write fs f ~off:(blk * 4096) page
      done;
      Fs.fsync fs f;
      let random = Sched.now () - t1 in
      checkb
        (Printf.sprintf "random (%d) slower than seq (%d)" random seq)
        true
        (random > 3 * seq))
    ()

let test_truncate () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "t" in
      Fs.write fs f ~off:0 (Bytes.make (Size.kib 100) 'T');
      Fs.fsync fs f;
      Fs.truncate fs f 10;
      checki "size" 10 (Fs.size fs f);
      Fs.write fs f ~off:0 (Bytes.of_string "z");
      Fs.fsync fs f;
      let back = Fs.read fs f ~off:0 ~len:10 in
      checks "kept prefix" "zTTTTTTTTT" (Bytes.to_string back))
    ()

let test_remove () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "gone" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'g');
      Fs.fsync fs f;
      checkb "exists" true (Fs.exists fs "gone");
      Fs.remove fs "gone";
      checkb "removed" false (Fs.exists fs "gone"))
    ()

let test_resident_scan_cost_grows () =
  in_sim (fun () ->
      (* Fig. 5's baseline effect: fsync of one dirty page costs more when
         the file has a large resident set. *)
      let fs = mk_fs ~mib:256 () in
      let cost_with_resident blocks =
        let f = Fs.open_file fs (Printf.sprintf "f%d" blocks) in
        let bs = Fs.fs_block_size fs in
        for i = 0 to blocks - 1 do
          Fs.write fs f ~off:(i * bs) (Bytes.make bs 'r')
        done;
        Fs.fsync fs f;
        Fs.write fs f ~off:0 (Bytes.of_string "d");
        let t0 = Sched.now () in
        Fs.fsync fs f;
        Sched.now () - t0
      in
      let small = cost_with_resident 8 in
      let large = cost_with_resident 1024 in
      checkb "scan cost grows with residency" true (large > small))
    ()

let test_mmap_read_write () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "mapped" in
      Fs.write fs f ~off:0 (Bytes.of_string "disk data!");
      Fs.fsync fs f;
      let phys = Phys.create () in
      let a = Aspace.create phys in
      ignore (Fs.mmap fs f a ~va:0x7000_0000 ~len:(Size.kib 16));
      (* Reads see file contents. *)
      checks "page-in" "disk data!"
        (Bytes.to_string (Aspace.read a ~va:0x7000_0000 ~len:10));
      (* Writes through the mapping reach the file after msync. *)
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "MMAP");
      Fs.msync fs f;
      checks "msync wrote through" "MMAP data!"
        (Bytes.to_string (Fs.read fs f ~off:0 ~len:10)))
    ()

let test_msync_retracks () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "mapped" in
      let phys = Phys.create () in
      let a = Aspace.create phys in
      ignore (Fs.mmap fs f a ~va:0x7000_0000 ~len:(Size.kib 16));
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "one");
      Fs.msync fs f;
      let io1 = Fs.bytes_written_to_disk fs in
      (* Nothing dirty: msync writes nothing new. *)
      Fs.msync fs f;
      checki "clean msync" io1 (Fs.bytes_written_to_disk fs);
      (* Dirty again after re-protection: tracked and flushed. *)
      Aspace.write a ~va:0x7000_0000 (Bytes.of_string "two");
      Fs.msync fs f;
      checkb "re-tracked" true (Fs.bytes_written_to_disk fs > io1);
      checks "content" "two" (Bytes.to_string (Fs.read fs f ~off:0 ~len:3)))
    ()

let test_zfs_cow_allocates_fresh () =
  in_sim (fun () ->
      let fs = mk_fs ~kind:Fs.Zfs () in
      let f = Fs.open_file fs "cow" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'a');
      Fs.fsync fs f;
      let w1 = Fs.bytes_written_to_disk fs in
      Fs.write fs f ~off:0 (Bytes.make 4096 'b');
      Fs.fsync fs f;
      (* COW rewrites the record somewhere new; data still correct. *)
      checkb "second sync wrote" true (Fs.bytes_written_to_disk fs > w1);
      checks "content" "b" (Bytes.to_string (Fs.read fs f ~off:0 ~len:1)))
    ()

let test_sync_meta_writes () =
  in_sim (fun () ->
      let fs = mk_fs () in
      let f = Fs.open_file fs "meta-test" in
      Fs.write fs f ~off:0 (Bytes.make 4096 'm');
      Fs.fsync fs f;
      let before = Fs.bytes_written_to_disk fs in
      Fs.sync_meta fs;
      checkb "metadata flushed to device" true (Fs.bytes_written_to_disk fs > before))
    ()

(* [writev] is the only write loop: a gather of several slices, empty
   ones included, across an fs-block boundary behaves exactly like
   [write] of their concatenation — same file bytes, same virtual-time
   charge, same read-modify-write reads. The partially covered blocks
   are on disk and evicted, so both sides pay RMW reads. *)
let test_writev_equals_write () =
  let run write =
    Sched.run (fun () ->
        let fs = mk_fs () in
        Fs.set_cache_capacity fs 2;
        let f = Fs.open_file fs "g" in
        let bs = Fs.fs_block_size fs in
        for i = 0 to 7 do
          Fs.write fs f ~off:(i * bs) (Bytes.make bs 'A')
        done;
        Fs.fsync fs f;
        let rmw0 = Fs.rmw_reads fs in
        let t0 = Sched.now () in
        write fs f ~off:((3 * bs) - 700);
        let dt = Sched.now () - t0 in
        let back = Fs.read fs f ~off:0 ~len:(Fs.size fs f) in
        (Bytes.to_string back, dt, Fs.rmw_reads fs - rmw0))
  in
  let parts = [ ""; "head-"; ""; String.make 1000 'p'; "-tail"; "" ] in
  let backing = Bytes.of_string ("xx" ^ String.concat "" parts ^ "yy") in
  (* Views into one shared backing buffer, plus standalone buffers. *)
  let slices =
    let pos = ref 2 in
    List.mapi
      (fun i p ->
        let len = String.length p in
        let s =
          if i mod 2 = 0 then Msnap_util.Slice.make backing ~pos:!pos ~len
          else Msnap_util.Slice.of_bytes (Bytes.of_string p)
        in
        pos := !pos + len;
        s)
      parts
  in
  let flat = Bytes.of_string (String.concat "" parts) in
  let bytes_v, dt_v, rmw_v = run (fun fs f ~off -> Fs.writev fs f ~off slices) in
  let bytes_w, dt_w, rmw_w = run (fun fs f ~off -> Fs.write fs f ~off flat) in
  checks "file bytes" bytes_w bytes_v;
  checki "virtual time" dt_w dt_v;
  checki "rmw reads" rmw_w rmw_v;
  checkb "the write paid RMW reads" true (rmw_w > 0)

(* --- mount / recovery ---

   Mount tests use a one-disk stripe, so the raw-media helpers ([peek],
   [poke]) on member 0 address device offsets directly. The suite runs with debug
   checks on, so every pooled scan buffer a mount reuses arrives
   poisoned: a parse that looked past the bytes actually read would see
   poison, not data. *)

let mk_dev () =
  Device.of_stripe (Stripe.create [ Disk.create ~name:"d0" ~size:(Size.mib 16) () ])

(* Write [data] at [off] of [name] and fsync it: one committed journal
   transaction. *)
let write_sync fs name ~off data =
  let f = Fs.open_file fs name in
  Fs.write fs f ~off (Bytes.of_string data);
  Fs.fsync fs f

(* Mount [dev] and check each (name, contents) pair. *)
let mount_check dev files =
  let m = Fs.mount dev ~kind:Fs.Ffs in
  List.iter
    (fun (name, want) ->
      let f = Fs.open_file m name in
      let n = Fs.size m f in
      checki (name ^ " size") (String.length want) n;
      checks (name ^ " contents") want (Bytes.to_string (Fs.read m f ~off:0 ~len:n)))
    files;
  Fs.dispose m

(* [n] small transactions on "churn". Each takes two journal ring blocks
   (intent entries, then the commit record), so 140 of them wrap the
   256-block ring and overwrite commits 1-12. Leaves "txn 0140" for
   [n = 140]. *)
let churn fs n =
  for i = 1 to n do
    write_sync fs "churn" ~off:0 (Printf.sprintf "txn %04d" i)
  done

(* Flip one byte of the stored checksum of the snapshot in [slot]. *)
let corrupt_snapshot dev ~slot =
  let base = if slot = 0 then 4096 else 32 * 4096 in
  let content_len = Msnap_util.Wire.get_u32 (Device.peek dev ~member:0 ~off:base ~len:28) 24 in
  let off = base + content_len in
  let b = Device.peek dev ~member:0 ~off ~len:1 in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Device.poke dev ~member:0 ~off ~data:b

let test_mount_fsynced_files () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      let big = Bytes.to_string (Rng.bytes (Rng.create 3) 100_000) in
      write_sync fs "big" ~off:0 big;
      write_sync fs "small" ~off:0 "hello mount";
      (* The second mount parses the first one's recycled buffers. *)
      for _ = 1 to 2 do
        mount_check dev [ ("big", big); ("small", "hello mount") ]
      done)
    ()

let test_mount_slot_fallback () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      Fs.sync_meta fs (* slot 0: empty, txn 0 *);
      churn fs 140;
      Fs.sync_meta fs (* slot 1: txn 140 *);
      write_sync fs "tail" ~off:0 "after slot 1";
      Fs.sync_meta fs (* slot 0: txn 141, the newest *);
      let files = [ ("churn", "txn 0140"); ("tail", "after slot 1") ] in
      mount_check dev files;
      corrupt_snapshot dev ~slot:0;
      (* Slot 1 plus the replay of txn 141 rebuilds the same state. *)
      mount_check dev files;
      (* With no intact snapshot the wrapped ring cannot replay from
         txn 1: the fallback above really came from slot 1. *)
      corrupt_snapshot dev ~slot:1;
      checkb "both slots corrupt: unmountable" true
        (match Fs.mount dev ~kind:Fs.Ffs with
        | exception Fs.Mount_error _ -> true
        | _ -> false))
    ()

let test_mount_replays_newer_commits () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      write_sync fs "a" ~off:0 "snapshotted";
      Fs.sync_meta fs;
      (* Both transactions below are in the journal only. *)
      write_sync fs "a" ~off:11 " then journaled";
      write_sync fs "b" ~off:0 "journal only";
      mount_check dev [ ("a", "snapshotted then journaled"); ("b", "journal only") ])
    ()

let test_mount_journal_gap () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      churn fs 140;
      match Fs.mount dev ~kind:Fs.Ffs with
      | exception Fs.Mount_error msg ->
        checkb "reports the gap" true (String.starts_with ~prefix:"journal gap" msg)
      | _ -> Alcotest.fail "mounted past a journal seq gap")
    ()

(* A mount scans 380 KiB of snapshot slots and the 1 MiB journal ring.
   Those scan buffers come from the pool, so once a first mount has
   parked them a second mount of the same image allocates almost nothing
   on the major heap (fresh buffers would cost 179,712 words; the ring
   alone is 131,072). *)
let test_mount_major_alloc () =
  in_sim (fun () ->
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      churn fs 20;
      Fs.sync_meta fs;
      write_sync fs "tail" ~off:0 "journaled";
      Fs.dispose (Fs.mount dev ~kind:Fs.Ffs);
      let _, _, major0 = Gc.counters () in
      let m = Fs.mount dev ~kind:Fs.Ffs in
      let _, _, major1 = Gc.counters () in
      Fs.dispose m;
      let words = int_of_float (major1 -. major0) in
      if words >= 32_768 then
        Alcotest.failf "second mount allocated %d major words (limit 32768)" words)
    ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fs"
    [
      ( "ffs",
        [
          tc "roundtrip" (test_write_read_roundtrip Fs.Ffs);
          tc "holes" test_holes_read_zero;
          tc "fsync persists" (test_fsync_persists_to_device Fs.Ffs);
          tc "eviction" test_read_back_after_eviction;
          tc "rmw" test_rmw_on_uncached_partial_write;
          tc "random slower" (test_random_slower_than_seq Fs.Ffs);
          tc "truncate" test_truncate;
          tc "remove" test_remove;
          tc "resident scan" test_resident_scan_cost_grows;
          tc "sync_meta" test_sync_meta_writes;
          tc "writev = write of the concatenation" test_writev_equals_write;
        ] );
      ( "mount",
        [
          tc "fsynced files survive" test_mount_fsynced_files;
          tc "slot 0 corrupt falls back to slot 1" test_mount_slot_fallback;
          tc "newer commits replay" test_mount_replays_newer_commits;
          tc "journal gap refused" test_mount_journal_gap;
          tc "pooled scan buffers" test_mount_major_alloc;
        ] );
      ( "zfs",
        [
          tc "roundtrip" (test_write_read_roundtrip Fs.Zfs);
          tc "fsync persists" (test_fsync_persists_to_device Fs.Zfs);
          tc "random slower" (test_random_slower_than_seq Fs.Zfs);
          tc "cow fresh blocks" test_zfs_cow_allocates_fresh;
        ] );
      ( "mmap",
        [
          tc "read/write" test_mmap_read_write;
          tc "msync retracks" test_msync_retracks;
        ] );
    ]
