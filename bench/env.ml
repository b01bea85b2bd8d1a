(* Shared machine builders and reporting helpers for the experiment
   harness. Every experiment runs on a fresh simulated machine: two
   striped NVMe devices (the paper's testbed layout), physical memory, one
   or more address spaces, and whichever persistence stack it measures. *)

(* --- end-of-run disposal ---

   Machine builders register teardown hooks that return pooled buffers
   (page frames, file-system cache blocks, disk medium chunks) to
   [Msnap_util.Pool] when the simulation finishes, so the next experiment
   on this domain reuses them instead of allocating fresh. Host-only:
   disposal runs after the simulated clock has stopped. *)

let disposals_key : (unit -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let on_dispose f =
  let slot = Domain.DLS.get disposals_key in
  slot := f :: !slot

module Sched = struct
  include Msnap_sim.Sched

  (* Run a simulation, then tear down what the machine builders
     registered. On an abnormal exit (e.g. a simulated power failure
     propagating out) the hooks are discarded without running: buffer
     ownership may be mid-transfer, and leaking to the GC is always
     safe. *)
  let run f =
    let slot = Domain.DLS.get disposals_key in
    match Msnap_sim.Sched.run f with
    | v ->
      List.iter (fun d -> d ()) !slot;
      slot := [];
      v
    | exception e ->
      slot := [];
      raise e
end

module Sync = Msnap_sim.Sync
module Costs = Msnap_sim.Costs
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe
module Rng = Msnap_util.Rng
module Keyfmt = Msnap_util.Keyfmt
module Intern = Msnap_util.Intern
module Size = Msnap_util.Size
module Tbl = Msnap_util.Tbl
module Histogram = Msnap_util.Histogram
module Disk = Msnap_blockdev.Disk
module Stripe = Msnap_blockdev.Stripe
module Device = Msnap_blockdev.Device
module Store = Msnap_objstore.Store
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Addr = Msnap_vm.Addr
module Fs = Msnap_fs.Fs
module Msnap = Msnap_core.Msnap
module Aurora = Msnap_aurora.Aurora

let dev_mib = 512

let mk_dev ?(mib = dev_mib) () =
  let dev =
    Device.of_stripe
      (Stripe.create [ Disk.create ~name:"nvme0" ~size:(Size.mib mib) ();
        Disk.create ~name:"nvme1" ~size:(Size.mib mib) () ])
  in
  on_dispose (fun () -> Device.dispose dev);
  dev

let mk_fs ?mib kind =
  let dev = mk_dev ?mib () in
  let fs = Fs.mkfs dev ~kind in
  on_dispose (fun () -> Fs.dispose fs);
  (dev, fs)

(* A machine with a MemSnap kernel: (device, kernel, aspace, phys). *)
let mk_msnap ?mib () =
  let dev = mk_dev ?mib () in
  let phys = Phys.create () in
  on_dispose (fun () -> Phys.dispose phys);
  let aspace = Aspace.create phys in
  Store.format dev;
  let store = Store.mount dev in
  let k = Msnap.init ~store in
  Msnap.attach k aspace;
  (dev, k, aspace, phys)

let mk_aurora ?mib ?other_mapped_pages () =
  let dev = mk_dev ?mib () in
  let phys = Phys.create () in
  on_dispose (fun () -> Phys.dispose phys);
  let aspace = Aspace.create phys in
  Store.format dev;
  let store = Store.mount dev in
  (dev, Aurora.Kernel.create ~aspace ~store ?other_mapped_pages (), aspace)

(* Dirty [pages] distinct random 4 KiB pages of a MemSnap region. *)
let dirty_random_pages k md rng ~region_pages ~pages =
  let chosen = Hashtbl.create pages in
  while Hashtbl.length chosen < pages do
    Hashtbl.replace chosen (Rng.int rng region_pages) ()
  done;
  Hashtbl.iter
    (fun p () -> Msnap.write k md ~off:(p * 4096) (Bytes.make 64 'd'))
    chosen

(* Mean of [iters] timed runs of [f]. *)
let time_mean ~iters f =
  let total = ref 0 in
  for _ = 1 to iters do
    let t0 = Sched.now () in
    f ();
    total := !total + (Sched.now () - t0)
  done;
  !total / iters

let sim_seconds () = float_of_int (Sched.now ()) /. 1e9

let throughput_kops ~ops =
  float_of_int ops /. 1e3 /. sim_seconds ()

(* Report CPU buckets as percentages of total charged CPU. *)
let cpu_percent report =
  let total = List.fold_left (fun a (_, v) -> a + v) 0 report in
  List.map
    (fun (name, v) ->
      (name, 100.0 *. float_of_int v /. float_of_int (max 1 total)))
    report

let metric_row p =
  (Probe.name p, Metrics.mean_ns p, Metrics.samples p)

(* --- output routing ---

   Experiments never print to stdout directly: everything goes through
   [emit], which either writes straight to stdout (serial runs) or into a
   per-domain capture buffer (parallel runs, see main.ml). The parallel
   runner prints the buffers in experiment order afterwards, so `-j N`
   produces byte-identical stdout to a serial run. *)

let out_key : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let emit s =
  match !(Domain.DLS.get out_key) with
  | Some b -> Buffer.add_string b s
  | None ->
    print_string s;
    flush stdout

let printf fmt = Printf.ksprintf emit fmt

let print_table t = emit (Tbl.render t ^ "\n")

(* Run [f ()] with all [emit] output (on this domain) captured in [buf]. *)
let captured buf f =
  let slot = Domain.DLS.get out_key in
  let saved = !slot in
  slot := Some buf;
  Fun.protect ~finally:(fun () -> slot := saved) f

let section title = printf "\n=== %s ===\n" title

(* --- host ledger ---

   Per-experiment wall/allocation/pool/scheduler numbers in
   BENCH_sim.json must stay attributable to *that* experiment even
   though a domain awaiting its cells helps run other tasks (its own
   cells, or another experiment's). Each domain charges its host work to
   one current ledger: [switch] reads the domain's counters once,
   charges the deltas since the previous switch to the current ledger,
   and installs the next one. Host work changes owner only at the start
   and end of an experiment (main.ml) and of a cell body ([cell]), so a
   ledger is exclusive by construction; [force] folds a cell's ledger
   into the forcing experiment's with the same [Pstats.merge] that folds
   its metrics. Ledgers stay out of the Metrics store, which experiments
   reset mid-run. *)

module Pool = Msnap_util.Pool
module Pstats = Msnap_sim.Pstats

let host_wall_ns = Probe.make Host "host.wall_ns"
let host_minor_words = Probe.make Host "host.minor_words"
let host_major_words = Probe.make Host "host.major_words"
let pool_hits = Probe.make Host "pool.hits"
let pool_misses = Probe.make Host "pool.misses"
let sched_events = Probe.make Host "sched.events"
let ctx_switches = Probe.make Host "sched.ctx_switches"

let charged =
  [| host_wall_ns; host_minor_words; host_major_words; pool_hits;
     pool_misses; sched_events; ctx_switches |]

(* One reading per probe of [charged]. [Gc.counters] (unlike
   [Gc.quick_stat]'s word counts, which are process-wide in OCaml 5) is
   domain-local, like the pool and scheduler counters, so a ledger holds
   only this domain's work whatever other domains do concurrently. *)
let read () =
  let minor, _, major = Gc.counters () in
  let p = Pool.totals () in
  let ev, ctx, _, _ = Sched.host_counters () in
  [| int_of_float (Unix.gettimeofday () *. 1e9); int_of_float minor;
     int_of_float major; p.Pool.t_hits; p.Pool.t_misses; ev; ctx |]

type ledger = {
  costs : Pstats.t; (* the [charged] probes' counts *)
  mutable cells : int list; (* forced cells' host.wall_ns, reversed *)
}

let ledger () = { costs = Pstats.create (); cells = [] }

type owner = { mutable cur : ledger; mutable mark : int array }

let owner_key : owner Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = ledger (); mark = read () })

(* Charge this domain's host work since the last switch to the current
   ledger, install [next], and return the displaced ledger. *)
let switch next =
  let o = Domain.DLS.get owner_key in
  let now = read () in
  Array.iteri (fun i p -> Pstats.incr o.cur.costs p (now.(i) - o.mark.(i))) charged;
  o.mark <- now;
  let prev = o.cur in
  o.cur <- next;
  prev

(* --- simulation cells ---

   [cell f] declares one independent measurement — [f] must be a
   self-contained deterministic simulation (fixed seeds, own machines,
   no state shared with other cells or the enclosing experiment) — and
   queues it on the task pool. [force] waits for it, replays its [emit]
   output here, folds its metrics/trace into this domain (in force
   order — see Msnap_sim.Cell), folds its host ledger into the current
   one, and returns its value. With zero pool workers the body runs
   inline at [force]: `-j 1` is exactly the old serial execution. *)

module Cell = Msnap_sim.Cell
module Taskpool = Msnap_util.Taskpool

type 'a cell_outcome = { co_v : 'a; co_out : string; co_host : Pstats.t }
type 'a pending = 'a cell_outcome Cell.t

let cell f : _ pending =
  Cell.submit (fun () ->
      let led = ledger () in
      let outer = switch led in
      let buf = Buffer.create 256 in
      let slot = Domain.DLS.get disposals_key in
      let saved = !slot in
      slot := [];
      let v =
        Fun.protect
          ~finally:(fun () ->
            slot := saved;
            ignore (switch outer))
          (fun () -> captured buf f)
      in
      { co_v = v; co_out = Buffer.contents buf; co_host = led.costs })

let force (p : _ pending) =
  let o = Cell.force p in
  emit o.co_out;
  let cur = (Domain.DLS.get owner_key).cur in
  Pstats.merge ~into:cur.costs o.co_host;
  cur.cells <- Pstats.count o.co_host host_wall_ns :: cur.cells;
  o.co_v

(* --- buffer-pool pre-warming ---

   Single-shot experiments (table1 runs one simulation) otherwise pay a
   miss for every buffer of their working set: nothing was ever
   recycled on a cold domain. Build-and-dispose a small file-system
   machine and a small MemSnap machine once per domain, outside any
   experiment's ledger, so the first real experiment finds the machine-
   building size classes (fs cache blocks, disk medium chunks, page
   frames) already parked. Host-only: pool warmth affects hit/miss
   counters, never a simulated value. *)

let warm () =
  (* The deepest single-run consumer of the 4 KiB class is table2's
     Aurora breakdown: a 4096-page region plus its CoW shadows and
     object-store staging, all live at once before anything is
     recycled. Park that many frames directly — building (and
     simulating) a machine that size just to throw it away would dwarf
     the rest of warm(). Alloc-then-recycle of distinct buffers, so
     the class really retains [page_frames] of them. *)
  let page_frames = 8 * 1024 in
  let bufs = Array.init page_frames (fun _ -> Pool.alloc Addr.page_size) in
  Array.iter Pool.recycle bufs;
  ignore
    (Sched.run (fun () ->
         let _, fs = mk_fs Fs.Ffs in
         let f = Fs.open_file fs "warm" in
         let bs = Fs.fs_block_size fs in
         let block = Bytes.make bs 'w' in
         for i = 0 to 127 do
           Fs.write fs f ~off:(i * bs) block
         done;
         Fs.fsync fs f));
  ignore
    (Sched.run (fun () ->
         let _, k, _, _ = mk_msnap () in
         let md = Msnap.open_region k ~name:"warm" ~len:(Size.mib 1) () in
         let b = Bytes.make 64 'w' in
         for i = 0 to 255 do
           Msnap.write k md ~off:(i * 4096) b
         done;
         ignore (Msnap.persist k ~region:md ())))
