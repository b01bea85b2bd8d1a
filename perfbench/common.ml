(* Machine builders, phase snapshots and the per-round record shared by
   the workloads. One round is one deterministic simulation: build the
   machine and load its data (set-up), run a fixed number of operations
   (the timed phase), then check the outputs. *)

module Sched = Msnap_sim.Sched
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Trace = Msnap_sim.Trace
module Rng = Msnap_util.Rng
module Size = Msnap_util.Size
module Pool = Msnap_util.Pool
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device

(* --- the round being run --- *)

(* Traced rounds wrap the device in {!Timed_dev}, record benchmark-side
   spans and turn on the program's own virtual-time tracing. *)
let traced = ref false

(* Teardown hooks that return pooled host buffers once a simulation has
   finished, so the next round on this domain reuses them. *)
let disposals : (unit -> unit) list ref = ref []
let on_dispose f = disposals := f :: !disposals

let run_sim f =
  match Sched.run f with
  | v ->
    List.iter (fun d -> d ()) !disposals;
    disposals := [];
    v
  | exception e ->
    disposals := [];
    raise e

(* The paper's testbed layout: two NVMe drives striped in 64 KiB units. *)
let mk_dev ?(mib = 512) () =
  let dev =
    Device.of_stripe
      (Stripe.create
         [ Disk.create ~name:"nvme0" ~size:(Size.mib mib) ();
           Disk.create ~name:"nvme1" ~size:(Size.mib mib) () ])
  in
  on_dispose (fun () -> Device.dispose dev);
  if !traced then Timed_dev.wrap dev else dev

let host_s () = float_of_int (Span.now_ns ()) /. 1e9

(* --- phase snapshots --- *)

type snap = {
  s_host : float;
  s_sim : int;
  s_acct : (string * int) list;
  s_acct_total : int;
  s_dev : Disk.stats;
  s_minor : float;
  s_major : float;
  s_major_gcs : int;
  s_pool : Pool.totals;
  s_summary : (string * string * int * int * int) list;
}

let no_stats = { Disk.reads = 0; writes = 0; bytes_read = 0; bytes_written = 0; busy_ns = 0 }

(* Outside a simulation (the crash checker runs one per point) only the
   host fields are meaningful. *)
let snap ?dev () =
  let minor, _, major = Gc.counters () in
  let sim = Sched.running () in
  {
    s_host = host_s ();
    s_sim = (if sim then Sched.now () else 0);
    s_acct = (if sim then Sched.account_report () else []);
    s_acct_total = (if sim then Sched.account_total () else 0);
    s_dev = (match dev with Some d -> Device.stats d | None -> no_stats);
    s_minor = minor;
    s_major = major;
    s_major_gcs = (Gc.quick_stat ()).Gc.major_collections;
    s_pool = Pool.totals ();
    s_summary = (if Trace.is_on () then (Trace.dump ()).Trace.d_summary else []);
  }

(* The timed phase: snapshots at both ends; benchmark-side spans are
   recorded only in between, and the program's [Metrics] registry holds
   exactly the timed phase's samples. *)
let begin_timed ?dev () =
  Metrics.reset ();
  let s = snap ?dev () in
  if !traced then Span.start_phase ();
  s

let end_timed ?dev () =
  if !traced then Span.end_phase ();
  snap ?dev ()

(* --- the round record --- *)

type round = {
  r_ops : int;  (** operations attempted in the timed phase *)
  r_failed : int;  (** of which failed an output check *)
  r_setup_s : float;  (** host seconds of set-up *)
  r_timed_s : float;  (** host seconds of the timed phase *)
  r_sim_ns : int;  (** virtual ns of the timed phase *)
  r_lat : int array;  (** sorted virtual latency per operation, ns *)
  r_write_amp : float;
  r_counts : (string * float) list;
      (** deterministic per-layer values: the same in every round of a
          seed, traced or not *)
  r_tcounts : (string * float) list;
      (** deterministic per-layer values read from the program's trace
          summary: traced rounds only *)
  r_host : (string * float) list;  (** host per-layer values *)
  r_acct_total : int;  (** [Sched.account_total] over the timed phase *)
  r_span_self_ns : int;  (** span self times summed, traced rounds *)
  r_events : int;  (** scheduler run-queue events of the whole round *)
  r_walloc : int;
  r_wreuse : int;
}

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_op ops v = fdiv v ops

let bucket_key name =
  "sim.cpu_ns_per_op." ^ String.map (fun c -> if c = ' ' then '_' else c) name

(* Deterministic per-layer values common to every workload, from two
   snapshots around the timed phase. *)
let layer_counts ~ops a b =
  let acct =
    List.map
      (fun (name, v) ->
        let v0 = Option.value ~default:0 (List.assoc_opt name a.s_acct) in
        (bucket_key name, per_op ops (v - v0)))
      b.s_acct
  in
  let d = b.s_dev and d0 = a.s_dev in
  let sim_ns = b.s_sim - a.s_sim in
  acct
  @ [
      ("blockdev.writes_per_op", per_op ops (d.writes - d0.writes));
      ("blockdev.bytes_written_per_op", per_op ops (d.bytes_written - d0.bytes_written));
      ("blockdev.reads_per_op", per_op ops (d.reads - d0.reads));
      ("blockdev.busy_frac", fdiv (d.busy_ns - d0.busy_ns) sim_ns);
    ]

(* Host per-layer values common to every workload. *)
let host_counts ~ops a b =
  let hits = b.s_pool.Pool.t_hits - a.s_pool.Pool.t_hits in
  let misses = b.s_pool.Pool.t_misses - a.s_pool.Pool.t_misses in
  let words x = if ops = 0 then 0.0 else x /. float_of_int ops in
  [
    ("pool.hit_rate", fdiv hits (hits + misses));
    ("pool.misses_per_op", per_op ops misses);
    ("gc.minor_words_per_op", words (b.s_minor -. a.s_minor));
    ("gc.major_words_per_op", words (b.s_major -. a.s_major));
    ("gc.major_collections", float_of_int (b.s_major_gcs - a.s_major_gcs));
  ]

(* Per-probe (count, total span ns) accumulated between two snapshots of
   the program's trace summary. *)
let summary_delta a b name =
  let find s =
    List.find_map
      (fun (_, n, c, tot, _) -> if n = name then Some (c, tot) else None)
      s
  in
  let c1, t1 = Option.value ~default:(0, 0) (find b.s_summary) in
  let c0, t0 = Option.value ~default:(0, 0) (find a.s_summary) in
  (c1 - c0, t1 - t0)

(* Trace-summary values shared by the workloads that touch vm or fs. *)
let trace_counts ~ops a b =
  let wf, wf_ns = summary_delta a b "vm.write_fault" in
  let sd, _ = summary_delta a b "vm.tlb_shootdown" in
  let fsync, fsync_ns = summary_delta a b "fs.fsync" in
  let journal, _ = summary_delta a b "fs.journal" in
  [
    ("vm.write_faults_per_op", per_op ops wf);
    ("vm.write_fault_sim_ns", fdiv wf_ns wf);
    ("vm.shootdowns_per_op", per_op ops sd);
    ("fs.fsync_sim_us", fdiv fsync_ns fsync /. 1e3);
    ("fs.journal_per_op", per_op ops journal);
  ]

(* The μCheckpoint stages and the object-store commits behind them, from
   the program's [Metrics] registry and store counters. *)
let core_counts ~store ~nodes0 ~data0 =
  let module Store = Msnap_objstore.Store in
  let commits = Metrics.count Probe.objstore_commits in
  let us p = Metrics.mean_ns p /. 1e3 in
  [
    ("objstore.nodes_per_commit", fdiv (Store.nodes_written store - nodes0) commits);
    ( "objstore.data_blocks_per_commit",
      fdiv (Store.data_blocks_written store - data0) commits );
    ("core.persist_sim_us.reset", us Probe.msnap_persist_reset);
    ("core.persist_sim_us.initiate", us Probe.msnap_persist_initiate);
    ("core.persist_sim_us.wait", us Probe.msnap_persist_wait);
  ]

(* Host per-layer values of the spans recorded during the timed phase. *)
let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
    float_of_int sorted.(max 0 i) /. 1e3

let sorted_durations k =
  let d = Span.durations k in
  Array.sort compare d;
  d

let span_p50_us k = percentile_us (sorted_durations k) 0.50

let span_pcts prefix k =
  let d = sorted_durations k in
  [ (prefix ^ "_p50", percentile_us d 0.50); (prefix ^ "_p99", percentile_us d 0.99) ]

let span_mean_ns k = fdiv (Span.total_ns k) (Span.count k)

(* Close a round from the set-up start time and the snapshots at both
   ends of the timed phase. The write amplification defaults to device
   bytes written in the timed phase over [payload]. *)
let close_round ~setup_t0 ~ops ~failed ~lat ~payload ?write_amp ?(counts = [])
    ?(host = []) a b =
  let lat = Array.copy lat in
  Array.sort compare lat;
  let write_amp =
    match write_amp with
    | Some w -> w
    | None -> fdiv (b.s_dev.bytes_written - a.s_dev.bytes_written) payload
  in
  let span_self =
    if !traced then List.fold_left (fun acc k -> acc + Span.self_ns k) 0 (Span.all ()) else 0
  in
  let timed_s = b.s_host -. a.s_host in
  let span_host () =
    let self_frac = float_of_int span_self /. (timed_s *. 1e9) in
    [
      ( "blockdev.host_ns_per_cmd",
        fdiv (Span.self_ns Timed_dev.cmd) (Span.count Timed_dev.cmd) );
      ("span.self_frac", self_frac);
      ("span.unattributed_frac", 1.0 -. self_frac);
    ]
  in
  {
    r_ops = ops;
    r_failed = failed;
    r_setup_s = a.s_host -. setup_t0;
    r_timed_s = timed_s;
    r_sim_ns = b.s_sim - a.s_sim;
    r_lat = lat;
    r_write_amp = write_amp;
    r_counts = layer_counts ~ops a b @ counts;
    r_tcounts = (if !traced then trace_counts ~ops a b else []);
    r_host = host_counts ~ops a b @ (if !traced then span_host () else []) @ host;
    r_acct_total = b.s_acct_total - a.s_acct_total;
    r_span_self_ns = span_self;
    r_events = 0;
    r_walloc = 0;
    r_wreuse = 0;
  }
