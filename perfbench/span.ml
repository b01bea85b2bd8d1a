(* Host-time spans recorded from the benchmark's own files, around calls
   into each layer's public functions.

   Every span kind keeps an exact count, the summed inclusive duration,
   the summed self time and (optionally) every inclusive duration for
   percentiles. Spans nest per green thread. Self time is exclusive host
   time: the host runs one green thread at a time, so each instant of a
   recording phase is charged to the innermost open span of the thread
   that emitted the latest span event, or to nobody. The self times of a
   phase should therefore sum to at most its wall time; the benchmark
   checks that against its own phase clock and reports the remainder as
   unattributed.

   A span that parks its thread (a device command, a database call that
   waits for a lock or an IO) stays open while other threads run, so its
   inclusive duration covers their work too. Report such spans as spans,
   not as self time.

   Recording is off unless a phase is open, and the closed raw spans
   are kept in memory (capped) and written out when the benchmark ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 256 (2 * v.n)) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let clear v = v.n <- 0
end

type kind = {
  k_id : int;
  k_name : string;
  k_samples : bool;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  durs : Ivec.t;
}

let kinds : kind list ref = ref []

let make ?(samples = false) name =
  match List.find_opt (fun k -> k.k_name = name) !kinds with
  | Some k -> k
  | None ->
    let k =
      { k_id = List.length !kinds; k_name = name; k_samples = samples;
        count = 0; total_ns = 0; self_ns = 0; durs = Ivec.create () }
    in
    kinds := !kinds @ [ k ];
    k

let name k = k.k_name
let count k = k.count
let total_ns k = k.total_ns
let self_ns k = k.self_ns
let durations k = Ivec.to_array k.durs

(* Recording state of the open phase. *)
let on = ref false
let last_t = ref 0
let last_tid = ref min_int

(* Open spans per green thread: (kind, start) stacks. *)
let stacks : (int, (kind * int) list ref) Hashtbl.t = Hashtbl.create 16

(* Raw closed spans: kind id, thread, start, end; capped. *)
let raw_cap = 100_000
let raw = Ivec.create ()

let tid () =
  if Msnap_sim.Sched.running () then
    Msnap_sim.Sched.tid_int (Msnap_sim.Sched.self ())
  else -1

let stack_of t =
  match Hashtbl.find_opt stacks t with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add stacks t s;
    s

let charge now =
  let d = now - !last_t in
  (match Hashtbl.find_opt stacks !last_tid with
  | Some { contents = (k, _) :: _ } -> k.self_ns <- k.self_ns + d
  | _ -> ());
  last_t := now

let enter k =
  if !on then begin
    let t = now_ns () in
    charge t;
    let th = tid () in
    let s = stack_of th in
    s := (k, t) :: !s;
    last_tid := th
  end

let exit k =
  if !on then begin
    let t = now_ns () in
    charge t;
    let th = tid () in
    let s = stack_of th in
    match !s with
    | (k', t0) :: rest when k' == k ->
      s := rest;
      last_tid := th;
      let d = t - t0 in
      k.count <- k.count + 1;
      k.total_ns <- k.total_ns + d;
      if k.k_samples then Ivec.push k.durs d;
      if raw.Ivec.n < 4 * raw_cap then begin
        Ivec.push raw k.k_id;
        Ivec.push raw th;
        Ivec.push raw t0;
        Ivec.push raw t
      end
    | _ -> invalid_arg ("Span.exit: unbalanced " ^ k.k_name)
  end

let wrap k f =
  if !on then begin
    enter k;
    match f () with
    | v ->
      exit k;
      v
    | exception e ->
      exit k;
      raise e
  end
  else f ()

(* Start recording: clears every kind's totals and the raw buffer. *)
let start_phase () =
  List.iter
    (fun k ->
      k.count <- 0;
      k.total_ns <- 0;
      k.self_ns <- 0;
      Ivec.clear k.durs)
    !kinds;
  Ivec.clear raw;
  Hashtbl.reset stacks;
  last_tid := min_int;
  last_t := now_ns ();
  on := true

let end_phase () =
  let t = now_ns () in
  charge t;
  on := false;
  Hashtbl.iter
    (fun _ s ->
      if !s <> [] then
        invalid_arg ("Span.end_phase: open span " ^ (fst (List.hd !s)).k_name))
    stacks

let raw_spans () =
  let a = Ivec.to_array raw in
  let kinds = Array.of_list !kinds in
  List.init (Array.length a / 4) (fun i ->
      (kinds.(a.(4 * i)).k_name, a.((4 * i) + 1), a.((4 * i) + 2),
       a.((4 * i) + 3)))

let all () = !kinds
