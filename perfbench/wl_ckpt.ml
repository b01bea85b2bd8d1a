(* ckpt-sweep: one thread dirties a random set of 4 KiB pages of one
   MemSnap region and persists it synchronously — the paper's core
   mechanism (Table 6, Fig. 3) with the dirty-set size drawn per
   operation instead of swept. *)

open Common
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Store = Msnap_objstore.Store
module Msnap = Msnap_core.Msnap
module Slice = Msnap_util.Slice

let page = 4096

(* 16 MiB region: every page stays resident in simulated memory. *)
let region_pages = 4096

(* Source of page contents: a page image is a 4 KiB window of it. *)
let src_len = 65536

let sp_write = Span.make "core.write"
let sp_persist = Span.make ~samples:true "core.persist"

(* Dirty-set size in pages: Table 6's 4 KiB - 1 MiB range, skewed small
   (a power-of-two band is picked uniformly, then a size inside it). *)
let draw_pages rng =
  let band = Rng.int rng 9 in
  1 + Rng.int rng (1 lsl band)

let round ~seed ~ops =
  run_sim (fun () ->
      let setup_t0 = host_s () in
      let rng = Rng.create seed in
      let src = Rng.bytes rng (src_len + page) in
      let dev = mk_dev ~mib:32 () in
      let phys = Phys.create () in
      on_dispose (fun () -> Phys.dispose phys);
      let aspace = Aspace.create phys in
      Store.format dev;
      let store = Store.mount dev in
      let k = Msnap.init ~store in
      Msnap.attach k aspace;
      let md = Msnap.open_region k ~name:"sweep" ~len:(region_pages * page) () in
      let shadow = Bytes.create (region_pages * page) in
      let write_page p src_off =
        Msnap.write_slice k md ~off:(p * page) (Slice.make src ~pos:src_off ~len:page)
      in
      let shadow_page p src_off = Bytes.blit src src_off shadow (p * page) page in
      (* Load: every page written once, persisted 1 MiB at a time. *)
      for p = 0 to region_pages - 1 do
        let off = Rng.int rng src_len in
        write_page p off;
        shadow_page p off;
        if p mod 256 = 255 then ignore (Msnap.persist k ~region:md ~mode:`Sync ())
      done;
      let a = begin_timed ~dev () in
      let nodes0 = Store.nodes_written store in
      let data0 = Store.data_blocks_written store in
      let lat = Array.make ops 0 in
      let last_writer = Array.make region_pages (-1) in
      let mark = Array.make region_pages (-1) in
      let epoch_failures = ref [] in
      let payload = ref 0 in
      for op = 0 to ops - 1 do
        let n = draw_pages rng in
        let t0 = Sched.now () in
        let chosen = ref 0 in
        while !chosen < n do
          let p = Rng.int rng region_pages in
          if mark.(p) <> op then begin
            mark.(p) <- op;
            incr chosen;
            last_writer.(p) <- op;
            let off = Rng.int rng src_len in
            Span.wrap sp_write (fun () -> write_page p off);
            shadow_page p off
          end
        done;
        let persist () = Msnap.persist k ~region:md ~mode:`Sync () in
        let e = Span.wrap sp_persist persist in
        lat.(op) <- Sched.now () - t0;
        payload := !payload + (n * page);
        if Msnap.durable_epoch md <> e then epoch_failures := op :: !epoch_failures
      done;
      let b = end_timed ~dev () in
      let counts = core_counts ~store ~nodes0 ~data0 in
      let host =
        if !traced then
          ("core.write_host_ns_per_page", span_mean_ns sp_write)
          :: span_pcts "core.persist_host_us" sp_persist
        else []
      in
      (* Output check: read the whole region back against the shadow; a
         wrong page fails the operation that last wrote it. *)
      let failed = Hashtbl.create 16 in
      List.iter (fun op -> Hashtbl.replace failed op ()) !epoch_failures;
      let buf = Bytes.create page in
      for p = 0 to region_pages - 1 do
        Msnap.read_into k md ~off:(p * page) buf ~pos:0 ~len:page;
        if not (Bytes.equal buf (Bytes.sub shadow (p * page) page)) then
          Hashtbl.replace failed last_writer.(p) ()
      done;
      close_round ~setup_t0 ~ops ~failed:(Hashtbl.length failed) ~lat
        ~payload:!payload ~counts ~host a b)
