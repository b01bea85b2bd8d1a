(* crash-matrix: the crash-schedule model checker over all six scripted
   crash workloads (msnap, objstore, fs, sqlite, pg, rocks), run
   serially. One operation is one crash point: materialise the
   post-crash image, recover the engine, check it against the value
   history. The seed picks the torn-write seeds and the sampled points.

   Set-up is the checker's recording pass for every engine; the timed
   phase checks every point, exactly as [Checker.run] does with no
   worker domains. {!cross_check} runs [Checker.run] itself and demands
   the same points and failures.

   Each point is its own simulation, so the simulated figures are those
   of recovery: the virtual time from mount to the end of the check, and
   the device traffic and CPU buckets of that simulation. *)

open Common
module Checker = Msnap_faults.Checker
module History = Msnap_faults.History
module Recoverable = Msnap_faults.Recoverable
module Crashwl = Msnap_crashwl.Workloads

let torn_seeds = 64
let max_points = 240

let opts seed =
  {
    Checker.seeds = List.init torn_seeds (fun i -> (seed * torn_seeds) + i + 1);
    max_points;
    sample_seed = seed;
    jobs = 0;
  }

(* What the last recovery simulation did, captured from inside it. *)
type recovery = {
  mutable rc_t0 : int;
  mutable rc_ns : int;
  mutable rc_dev : Disk.stats;
  mutable rc_acct : (string * int) list;
  mutable rc_acct_total : int;
}

let rc = { rc_t0 = 0; rc_ns = 0; rc_dev = no_stats; rc_acct = []; rc_acct_total = 0 }
let last_dev = ref None
let recorded_bytes = ref 0

let capture () =
  rc.rc_ns <- Sched.now () - rc.rc_t0;
  rc.rc_acct <- Sched.account_report ();
  rc.rc_acct_total <- Sched.account_total ();
  rc.rc_dev <- (match !last_dev with Some d -> Device.stats d | None -> no_stats)

(* The engine's recovery contract and recording script, observed from
   outside: every call is forwarded unchanged. *)
let observed (w : Checker.workload) =
  let module R = (val w.w_recoverable : Recoverable.S) in
  let module O = struct
    include R

    let recover dev =
      rc.rc_t0 <- Sched.now ();
      Fun.protect ~finally:capture (fun () -> R.recover dev)

    let check st h = Fun.protect ~finally:capture (fun () -> R.check st h)
  end in
  {
    w with
    Checker.w_recoverable = (module O : Recoverable.S);
    w_device =
      (fun () ->
        let d = w.w_device () in
        last_dev := Some d;
        if !traced then Timed_dev.wrap d else d);
    w_run =
      (fun dev record ->
        let h = w.w_run dev record in
        recorded_bytes := (Device.stats dev).bytes_written;
        h);
  }

let engines = List.map observed Crashwl.all

(* Bytes of acknowledged state the script asked for: the values that
   are new or changed at each history step. *)
let payload hist =
  let prev = ref [] in
  Array.fold_left
    (fun acc step ->
      let changed =
        List.fold_left
          (fun acc (k, v) ->
            if List.assoc_opt k !prev = Some v then acc else acc + String.length v)
          0 step.History.s_state
      in
      prev := step.History.s_state;
      acc + changed)
    0 (History.steps hist)

let sp_check =
  List.map (fun (w : Checker.workload) -> Span.make ("faults.check." ^ w.w_name)) engines

(* Points and failures of the last round, per engine, for {!cross_check}. *)
let last : (int * Checker.failure list) list ref = ref []

let add_acct acc report =
  List.fold_left
    (fun acc (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name acc) in
      (name, v0 + v) :: List.remove_assoc name acc)
    acc report

let add_stats (a : Disk.stats) (b : Disk.stats) =
  {
    Disk.reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    bytes_read = a.bytes_read + b.bytes_read;
    bytes_written = a.bytes_written + b.bytes_written;
    busy_ns = a.busy_ns + b.busy_ns;
  }

let round ~seed ~ops =
  let setup_t0 = host_s () in
  let opts = opts seed in
  let record_ms = ref [] and wrote = ref 0 and asked = ref 0 in
  let recorded =
    List.map
      (fun (w : Checker.workload) ->
        let t0 = host_s () in
        let r, h = Checker.record_run w in
        record_ms := (w.w_name, (host_s () -. t0) *. 1e3) :: !record_ms;
        wrote := !wrote + !recorded_bytes;
        asked := !asked + payload h;
        let pts =
          if ops = 0 then []
          else Checker.points ~boundaries:(Msnap_blockdev.Record.boundaries r) ~opts
        in
        (w, r, h, pts))
      engines
  in
  let a = begin_timed () in
  let lat = ref [] and acct = ref [] and total = ref 0 in
  let dev = ref no_stats and sim_ns = ref 0 in
  let results =
    List.map2
      (fun (w, r, h, pts) sp ->
        let failures =
          List.filter_map
            (fun (prefix, torn_seed) ->
              let f =
                Span.wrap sp (fun () -> Checker.check_point w r h ~prefix ~torn_seed)
              in
              lat := rc.rc_ns :: !lat;
              sim_ns := !sim_ns + rc.rc_ns;
              acct := add_acct !acct rc.rc_acct;
              total := !total + rc.rc_acct_total;
              dev := add_stats !dev rc.rc_dev;
              f)
            pts
        in
        (w, List.length pts, failures))
      recorded sp_check
  in
  let b = end_timed () in
  last := List.map (fun (_, n, f) -> (n, f)) results;
  let points = List.fold_left (fun acc (_, n, _) -> acc + n) 0 results in
  let failed = List.fold_left (fun acc (_, _, f) -> acc + List.length f) 0 results in
  List.iter
    (fun (w, _, fs) ->
      List.iter (fun f -> prerr_endline (Checker.pp_failure w.Checker.w_name f)) fs)
    results;
  let b =
    { b with s_sim = a.s_sim + !sim_ns; s_acct = !acct; s_acct_total = !total; s_dev = !dev }
  in
  let host =
    if !traced then
      List.map (fun (name, ms) -> ("faults.record_host_ms." ^ name, ms)) !record_ms
      @ List.map2
          (fun (w, n, _) sp ->
            ( "faults.check_host_ms_per_point." ^ w.Checker.w_name,
              float_of_int (Span.total_ns sp) /. 1e6 /. float_of_int (max 1 n) ))
          results sp_check
    else []
  in
  close_round ~setup_t0 ~ops:points ~failed ~lat:(Array.of_list !lat) ~payload:!asked
    ~write_amp:(fdiv !wrote !asked) ~host a b

(* [Checker.run] itself, outside the timing: the same points and the
   same failures as the last round, engine by engine. *)
let cross_check seed =
  let opts = opts seed in
  List.for_all2
    (fun w (n, failures) ->
      let r = Checker.run ~opts w in
      r.Checker.r_points = n && r.r_failures = failures)
    engines !last
