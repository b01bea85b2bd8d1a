(* One domain-local {!Pstats} store, so experiments running in parallel
   bench domains cannot observe each other's samples. *)
let key : Pstats.t Domain.DLS.key = Domain.DLS.new_key Pstats.create
let stats () = Domain.DLS.get key
let reset () = Domain.DLS.set key (Pstats.create ())
let incr ?(by = 1) p = Pstats.incr (stats ()) p by
let count p = Pstats.count (stats ()) p
let add_sample p ns = Pstats.sample (stats ()) p ns
let samples p = Pstats.samples (stats ()) p

let mean_ns p =
  let s = stats () in
  let n = Pstats.samples s p in
  if n = 0 then 0.0 else float_of_int (Pstats.total s p) /. float_of_int n

let counters () =
  let acc = ref [] in
  Pstats.iter (stats ()) (fun p ~count ~samples:_ ~total:_ ~max:_ ->
      acc := (Probe.name p, count) :: !acc);
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* --- cell isolation (see Msnap_sim.Cell) ---

   A cell runs with a private store so that (a) its samples cannot leak
   into whatever experiment happens to share the domain, and (b) the
   experiment sees the cell's samples only at force time, in submission
   order, regardless of which domain ran the body when. *)

type snapshot = Pstats.t

let cell_begin () =
  let saved = stats () in
  reset ();
  saved

let cell_end saved =
  let cell = stats () in
  Domain.DLS.set key saved;
  cell

let cell_merge cell = Pstats.merge ~into:(stats ()) cell

(* Closure-free form of {!timed} for hot call sites: bracket the section
   with [timed_begin]/[timed_end] instead of wrapping it in a lambda. *)
let timed_begin () = Sched.now ()

let timed_end ?argi p t0 =
  let dt = Sched.now () - t0 in
  add_sample p dt;
  (* The probe carries its subsystem, so every timed section doubles as a
     correctly-categorized trace span when tracing is on. Host-only. *)
  Trace.complete ?argi p ~dur:dt

let timed p f =
  let t0 = timed_begin () in
  let r = f () in
  timed_end p t0;
  r
