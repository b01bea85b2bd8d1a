(* The benchmark program: runs one workload for a fixed host time and
   prints its metrics as one JSON object on the last line of stdout.

     main.exe --workload W --seed N --seconds S --trace 0|1 --out DIR

   A run repeats rounds of the workload — the same seeded simulation
   every time — until [--seconds] of host time have passed. Host times
   are the fastest round's: interference from other processes on the
   host only ever adds time, so the minimum is the steadiest estimate of
   what the code costs. Simulated figures must be bit-identical in every
   round (the determinism guard), traced or not.

   [--trace 0] reports the end-to-end metrics. [--trace 1] alternates
   untraced and traced rounds and reports the per-layer metrics: spans
   recorded around calls into each layer, the program's own counters and
   trace summary, and the tracing overhead. *)

open Perfbench
open Common

type workload = {
  w_name : string;
  w_ops : int;  (** operations per round *)
  w_round : seed:int -> ops:int -> round;
}

let workloads =
  [
    { w_name = "ckpt-sweep"; w_ops = 6_000; w_round = Wl_ckpt.round };
    { w_name = "rocks-mixgraph"; w_ops = 24_000; w_round = Wl_rocks.round };
    { w_name = "sqlite-tatp-ffs"; w_ops = 20_000; w_round = Wl_sqlite.round };
    { w_name = "crash-matrix"; w_ops = 1; w_round = Wl_crash.round };
  ]

(* Every per-layer metric, in report order; a workload that does not
   reach a layer reports 0 for it. *)
let buckets =
  List.init Probe.Bucket.count (fun i -> bucket_key (Probe.Bucket.name (Probe.Bucket.of_id i)))

let crash_engines = List.map (fun (w : Msnap_faults.Checker.workload) -> w.w_name) Wl_crash.engines

let per_layer =
  [ "sim.events_per_op"; "sim.host_ns_per_event"; "sim.waker_reuse_rate" ]
  @ buckets
  @ [
      "core.persist_host_us_p50"; "core.persist_host_us_p99"; "core.write_host_ns_per_page";
      "core.persist_sim_us.reset"; "core.persist_sim_us.initiate"; "core.persist_sim_us.wait";
      "vm.write_faults_per_op"; "vm.write_fault_sim_ns"; "vm.shootdowns_per_op";
      "objstore.nodes_per_commit"; "objstore.data_blocks_per_commit";
      "blockdev.writes_per_op"; "blockdev.bytes_written_per_op"; "blockdev.reads_per_op";
      "blockdev.busy_frac"; "blockdev.host_ns_per_cmd";
      "fs.bytes_written_per_op"; "fs.rmw_reads_per_op"; "fs.fsync_sim_us"; "fs.journal_per_op";
      "sqlite.read_host_us_p50"; "sqlite.read_host_us_p99";
      "sqlite.txn_host_us_p50"; "sqlite.txn_host_us_p99";
      "sqlite.wal_checkpoints"; "sqlite.wal_bytes_per_txn";
      "rocks.persists_per_put"; "rocks.persist_sim_us";
      "rocks.get_span_us"; "rocks.put_span_us"; "rocks.seek_span_us";
      "workloads.gen_host_ns_per_op";
      "pool.hit_rate"; "pool.misses_per_op";
      "gc.minor_words_per_op"; "gc.major_words_per_op"; "gc.major_collections";
    ]
  @ List.map (fun e -> "faults.record_host_ms." ^ e) crash_engines
  @ List.map (fun e -> "faults.check_host_ms_per_point." ^ e) crash_engines
  @ [
      "span.self_frac"; "span.unattributed_frac";
      "trace.host_ops_per_s_untraced"; "trace.host_ops_per_s_traced"; "trace.overhead_frac";
    ]

(* --- statistics --- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = List.fold_left Float.min Float.infinity xs

let mean_us lat =
  if lat = [||] then 0.0
  else float_of_int (Array.fold_left ( + ) 0 lat) /. float_of_int (Array.length lat) /. 1e3

(* Host throughput of the fastest of [rs]. *)
let best_ops_per_s rs =
  let r = List.hd rs in
  float_of_int r.r_ops /. minimum (List.map (fun r -> r.r_timed_s) rs)

(* --- layer-sum checks --- *)

(* The reported [sim.cpu_ns_per_op] values, times the operations, must
   add up to the scheduler's own total: a bucket whose renamed key
   collides with another's or is missing from the report breaks it. *)
let buckets_sum_ok r =
  let reported =
    List.fold_left
      (fun acc k ->
        match List.assoc_opt k r.r_counts with
        | Some v -> acc + int_of_float (Float.round (v *. float_of_int r.r_ops))
        | None -> acc)
      0 buckets
  in
  if reported <> r.r_acct_total then
    Printf.printf "layer-sum: FAIL sim.cpu_ns_per_op buckets give %d ns, Sched.account_total %d ns\n"
      reported r.r_acct_total;
  reported = r.r_acct_total

(* Span self times are exclusive, so on one host thread they cannot add
   up to more than the timed phase as the round's own clock saw it. *)
let span_self_ok r =
  let wall_ns = r.r_timed_s *. 1e9 in
  let ok = float_of_int r.r_span_self_ns <= wall_ns in
  if not ok then
    Printf.printf "layer-sum: FAIL span self times %d ns exceed the timed phase's %.0f ns\n"
      r.r_span_self_ns wall_ns;
  ok

(* --- determinism guard --- *)

let signature r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %h %d %d %d\n" r.r_ops r.r_failed r.r_sim_ns r.r_write_amp
    r.r_events r.r_walloc r.r_wreuse;
  Array.iter (fun v -> Printf.bprintf b "%d," v) r.r_lat;
  List.iter (fun (k, v) -> Printf.bprintf b "\n%s=%h" k v) r.r_counts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tsignature r =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) r.r_tcounts)))

(* --- JSON output --- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_str s = Printf.sprintf "%S" s

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs) ^ "}"

let json_metrics ms = json_obj (List.map (fun (k, v) -> (k, json_float v)) ms)

(* --- the run --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where the run's result file is written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  let fingerprint =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("profile", json_str Build_profile.v);
      ("word_size", string_of_int Sys.word_size);
    ]
  in
  Printf.printf "fingerprint %s\n%!" (json_obj fingerprint);
  let round ~is_traced ~ops =
    traced := is_traced;
    if is_traced then Trace.enable ~limit:1 () else Trace.disable ();
    let e0, _, wa0, wr0 = Sched.host_counters () in
    let r = w.w_round ~seed:!seed ~ops in
    let e1, _, wa1, wr1 = Sched.host_counters () in
    traced := false;
    Trace.disable ();
    { r with r_events = e1 - e0; r_walloc = wa1 - wa0; r_wreuse = wr1 - wr0 }
  in
  let t_start = host_s () in
  let elapsed () = host_s () -. t_start in
  (* A set-up-only round first: it warms the host buffer pools, and its
     scheduler counts are what the set-up costs, to subtract. *)
  let base = round ~is_traced:false ~ops:0 in
  let untraced = ref [] and traced_rounds = ref [] in
  let min_rounds = 3 in
  let continue () =
    elapsed () < float_of_int !seconds
    || List.length !untraced < min_rounds
    || (!trace = 1 && List.length !traced_rounds < min_rounds)
  in
  while continue () do
    untraced := round ~is_traced:false ~ops:w.w_ops :: !untraced;
    if !trace = 1 then traced_rounds := round ~is_traced:true ~ops:w.w_ops :: !traced_rounds
  done;
  let all = !untraced @ !traced_rounds in
  let r0 = List.hd all in
  (* Determinism guard. *)
  let sigs = List.sort_uniq compare (List.map signature all) in
  let tsigs = List.sort_uniq compare (List.map tsignature !traced_rounds) in
  let deterministic = List.length sigs = 1 && List.length tsigs <= 1 in
  if not deterministic then
    Printf.printf "determinism: FAIL — %d distinct simulated signatures across %d rounds\n"
      (List.length sigs) (List.length all);
  Printf.printf "sim-signature %s\n" (List.hd sigs);
  let cross_ok = w.w_name <> "crash-matrix" || Wl_crash.cross_check !seed in
  if not cross_ok then print_endline "crash-matrix: Checker.run disagrees with the timed points";
  let buckets_ok = List.for_all buckets_sum_ok all in
  let spans_ok = List.for_all span_self_ok !traced_rounds in
  let attempted = List.fold_left (fun acc r -> acc + r.r_ops) 0 all in
  let failed = List.fold_left (fun acc r -> acc + r.r_failed) 0 all in
  let n = Array.length r0.r_lat in
  Printf.printf "rounds %d untraced + %d traced, %d ops per round, %d latency samples per round\n"
    (List.length !untraced) (List.length !traced_rounds) r0.r_ops n;
  Printf.printf "sim latency over %d samples: p50 %.3f us, mean %.3f us, p99 %.3f us\n" n
    (percentile_us r0.r_lat 0.50) (mean_us r0.r_lat) (percentile_us r0.r_lat 0.99);
  if w.w_name = "sqlite-tatp-ffs" then begin
    let db, cache = !Wl_sqlite.sizes in
    Printf.printf "sqlite-tatp-ffs: database %d bytes, FFS buffer cache %d bytes (%.1fx)\n" db cache
      (float_of_int db /. float_of_int cache)
  end;
  let top_heap_mib =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let metrics =
    if !trace = 0 then
      [
        ("setup_s", minimum (List.map (fun r -> r.r_setup_s) !untraced));
        ("host_ops_per_s", best_ops_per_s !untraced);
        ("host_peak_heap_mib", top_heap_mib);
        ("sim_ops_per_s", float_of_int r0.r_ops /. (float_of_int r0.r_sim_ns /. 1e9));
        ("sim_op_mean_us", mean_us r0.r_lat);
        ("sim_op_p99_us", percentile_us r0.r_lat 0.99);
        ("sim_write_amp", r0.r_write_amp);
      ]
    else begin
      let t0 = List.hd !traced_rounds in
      let ops = float_of_int t0.r_ops in
      let events = r0.r_events - base.r_events in
      let walloc = r0.r_walloc - base.r_walloc and wreuse = r0.r_wreuse - base.r_wreuse in
      let host_names =
        List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.r_host) !traced_rounds)
      in
      let host =
        List.map
          (fun k ->
            (k, median (List.filter_map (fun r -> List.assoc_opt k r.r_host) !traced_rounds)))
          host_names
      in
      let untr = best_ops_per_s !untraced and tr = best_ops_per_s !traced_rounds in
      let measured =
        [
          ("sim.events_per_op", float_of_int events /. ops);
          ( "sim.host_ns_per_event",
            if events = 0 then 0.0
            else minimum (List.map (fun r -> r.r_timed_s) !untraced) *. 1e9 /. float_of_int events );
          ("sim.waker_reuse_rate", fdiv wreuse (walloc + wreuse));
          ("trace.host_ops_per_s_untraced", untr);
          ("trace.host_ops_per_s_traced", tr);
          ("trace.overhead_frac", (untr -. tr) /. untr);
        ]
        @ r0.r_counts @ t0.r_tcounts @ host
      in
      let unknown = List.filter (fun (k, _) -> not (List.mem k per_layer)) measured in
      List.iter (fun (k, _) -> Printf.printf "unlisted per-layer metric %s\n" k) unknown;
      let self = List.assoc_opt "span.self_frac" host |> Option.value ~default:0.0 in
      Printf.printf
        "layer-sum: host span self time %.1f%% of the timed wall time, unattributed %.1f%%\n"
        (100.0 *. self) (100.0 *. (1.0 -. self));
      if buckets_ok then
        Printf.printf "layer-sum: sim.cpu_ns_per_op buckets sum to Sched.account_total, %.1f ns/op\n"
          (fdiv r0.r_acct_total r0.r_ops);
      Printf.printf "tracing overhead: %.0f ops/s untraced, %.0f ops/s traced (%.1f%%)\n" untr tr
        (100.0 *. (untr -. tr) /. untr);
      List.map
        (fun k -> (k, Option.value ~default:0.0 (List.assoc_opt k measured)))
        per_layer
    end
  in
  let correct = failed = 0 && deterministic && cross_ok && buckets_ok && spans_ok in
  let result =
    json_obj
      [
        ("correct", string_of_bool correct);
        ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ("metrics", json_metrics metrics);
      ]
  in
  if !out <> "" then begin
    let file =
      Filename.concat !out (Printf.sprintf "%s-seed%d-trace%d.json" w.w_name !seed !trace)
    in
    let oc = open_out file in
    let spans =
      List.map
        (fun k ->
          ( Span.name k,
            json_obj
              [
                ("count", string_of_int (Span.count k));
                ("total_ns", string_of_int (Span.total_ns k));
                ("self_ns", string_of_int (Span.self_ns k));
              ] ))
        (Span.all ())
    in
    let raw =
      List.map
        (fun (name, tid, t0, t1) -> Printf.sprintf "[%S, %d, %d, %d]" name tid t0 t1)
        (Span.raw_spans ())
    in
    output_string oc
      (json_obj
         [
           ("fingerprint", json_obj fingerprint);
           ("workload", json_str w.w_name);
           ("seed", string_of_int !seed);
           ("trace", string_of_int !trace);
           ("sim_signature", json_str (List.hd sigs));
           ("latency_samples_per_round", string_of_int n);
           ( "rounds",
             "["
             ^ String.concat ", "
                 (List.map
                    (fun r ->
                      json_metrics
                        [ ("setup_s", r.r_setup_s); ("timed_s", r.r_timed_s);
                          ("ops", float_of_int r.r_ops) ])
                    all)
             ^ "]" );
           ("sim_counts", json_metrics r0.r_counts);
           ("result", result);
           ("spans_last_traced_round", json_obj spans);
           ("raw_spans_last_traced_round", "[" ^ String.concat ",\n" raw ^ "]");
         ]);
    output_char oc '\n';
    close_out oc
  end;
  print_endline result
