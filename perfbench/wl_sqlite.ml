(* sqlite-tatp-ffs: TATP transactions (80% reads, 20% writes) on the
   SQLite model over its WAL-and-checkpoint backend on the FFS model —
   Fig. 5's baseline path. The database is several times larger than the
   file system's buffer cache, so checkpoints rewrite cold blocks and pay
   read-modify-write reads. *)

open Common
module Fs = Msnap_fs.Fs
module Db = Msnap_sqlite.Db
module Pager = Msnap_sqlite.Pager
module Backend_wal = Msnap_sqlite.Backend_wal
module Tatp = Msnap_workloads.Workloads.Tatp

let subscribers = 40_000

(* Fig. 5's buffer cache: 128 FFS blocks of 32 KiB (4 MiB). *)
let cache_blocks = 128

let key_table = Array.init subscribers Db.key_of_int
let key_of s = key_table.(s)

let sub_row s = Printf.sprintf "sub%08d:%s" s (String.make 80 's')
let v_access = String.make 40 'a'
let v_facility = String.make 40 'f'
let v_facility' = String.make 40 'F'
let v_forwarding = String.make 24 'c'

let sp_read = Span.make ~samples:true "sqlite.read"
let sp_txn = Span.make ~samples:true "sqlite.txn"
let sp_gen = Span.make "workloads.gen"

(* Sizes reported once per run: database pages and buffer-cache bytes. *)
let sizes = ref (0, 0)

let round ~seed ~ops =
  run_sim (fun () ->
      let setup_t0 = host_s () in
      let rng = Rng.create seed in
      let dev = mk_dev () in
      let fs = Fs.mkfs dev ~kind:Fs.Ffs in
      on_dispose (fun () -> Fs.dispose fs);
      Fs.set_cache_capacity fs cache_blocks;
      let w = Backend_wal.create fs ~db_name:"tatp.db" () in
      (* WAL bytes appended per commit: frames times the frame size seen
         on commits that did not checkpoint (a checkpoint truncates the
         WAL inside the commit). *)
      let frames = ref 0 and frame_bytes = ref 0 in
      let inner = Backend_wal.backend w in
      let backend =
        { inner with
          Pager.b_commit =
            (fun pages ->
              let before = Backend_wal.wal_bytes w in
              let ck = Backend_wal.checkpoints_done w in
              inner.Pager.b_commit pages;
              let n = List.length pages in
              frames := !frames + n;
              if Backend_wal.checkpoints_done w = ck && n > 0 then
                frame_bytes := (Backend_wal.wal_bytes w - before) / n) }
      in
      let db = Db.open_db backend in
      on_dispose (fun () ->
          Pager.dispose (Db.pager db);
          Backend_wal.dispose w);
      let names = [| "subscriber"; "access_info"; "special_facility"; "call_forwarding" |] in
      let tables = Array.map (Db.create_table db) names in
      let shadow = Array.map (fun _ -> Hashtbl.create subscribers) names in
      let sub, ai, sf, cf = (0, 1, 2, 3) in
      let payload = ref 0 in
      let put t s v =
        Db.put tables.(t) ~key:(key_of s) ~value:v;
        Hashtbl.replace shadow.(t) s v;
        payload := !payload + String.length (key_of s) + String.length v
      in
      let i = ref 0 in
      while !i < subscribers do
        let hi = min (subscribers - 1) (!i + 255) in
        Db.with_write_txn db (fun () ->
            for s = !i to hi do
              put sub s (sub_row s);
              put ai s v_access;
              put sf s v_facility
            done);
        i := hi + 1
      done;
      sizes := (Pager.npages (Db.pager db) * 4096, Fs.cache_capacity_blocks fs * Fs.fs_block_size fs);
      let a = begin_timed ~dev () in
      payload := 0;
      frames := 0;
      let fs_bytes0 = Fs.bytes_written_to_disk fs and rmw0 = Fs.rmw_reads fs in
      let ckpts0 = Backend_wal.checkpoints_done w in
      let lat = Array.make ops 0 in
      let failed = ref 0 and txns = ref 0 in
      let read t s =
        let got = Span.wrap sp_read (fun () -> Db.get tables.(t) (key_of s)) in
        got = Hashtbl.find_opt shadow.(t) s
      in
      let txn f =
        incr txns;
        Span.wrap sp_txn (fun () -> Db.with_write_txn db f)
      in
      for op = 0 to ops - 1 do
        let t0 = Sched.now () in
        let ok =
          match Span.wrap sp_gen (fun () -> Tatp.next ~subscribers rng) with
          | Tatp.Get_subscriber_data s -> read sub s
          | Tatp.Get_new_destination s -> read cf s
          | Tatp.Get_access_data s -> read ai s
          | Tatp.Update_subscriber_data s ->
            txn (fun () -> put sf s v_facility');
            true
          | Tatp.Update_location s ->
            txn (fun () -> put sub s (sub_row s));
            true
          | Tatp.Insert_call_forwarding s ->
            txn (fun () -> put cf s v_forwarding);
            true
          | Tatp.Delete_call_forwarding s ->
            let expect = Hashtbl.mem shadow.(cf) s in
            Hashtbl.remove shadow.(cf) s;
            payload := !payload + String.length (key_of s);
            txn (fun () -> Db.delete tables.(cf) (key_of s)) = expect
        in
        if not ok then incr failed;
        lat.(op) <- Sched.now () - t0
      done;
      let b = end_timed ~dev () in
      let counts =
        [
          ("fs.bytes_written_per_op", per_op ops (Fs.bytes_written_to_disk fs - fs_bytes0));
          ("fs.rmw_reads_per_op", per_op ops (Fs.rmw_reads fs - rmw0));
          ("sqlite.wal_checkpoints", float_of_int (Backend_wal.checkpoints_done w - ckpts0));
          ("sqlite.wal_bytes_per_txn", fdiv (!frames * !frame_bytes) !txns);
        ]
      in
      let host =
        span_pcts "sqlite.read_host_us" sp_read
        @ span_pcts "sqlite.txn_host_us" sp_txn
        @ [ ("workloads.gen_host_ns_per_op", span_mean_ns sp_gen) ]
      in
      (* Output check: every row of every table matches the shadow. *)
      Array.iteri
        (fun t tbl ->
          if Db.count tbl <> Hashtbl.length shadow.(t) then incr failed;
          Db.iter_range tbl (fun k v ->
              if Hashtbl.find_opt shadow.(t) (Db.int_of_key k) <> Some v then incr failed))
        tables;
      close_round ~setup_t0 ~ops ~failed:!failed ~lat ~payload:!payload ~counts
        ~host:(if !traced then host else []) a b)
