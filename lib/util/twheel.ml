(* Hierarchical timing wheel: the scheduler's run queue.

   A monotone priority queue over integer timestamps with FIFO order
   among equal priorities — the exact (prio, seq) lexicographic order of
   the binary heap it replaced, whose copy in the tests ([Ref_pq]) is
   the differential oracle — but allocation-free in steady state.
   Entries live in a struct-of-arrays arena (int columns for prio and
   seq, one value column); each occupied wheel slot is a FIFO ring
   (Iring) of arena indices, so push recycles an arena slot and appends
   one int, and pop_min removes one int: no per-entry boxing and no
   O(log n) sifting.

   Layout: 13 levels of 32 slots each (5-bit digits, 65 bits >= the 63
   significant bits of an OCaml int). An entry with priority [p] is
   filed by the most-significant base-32 digit in which [p] differs from
   the wheel's current [base] (level 0 when none differs above digit 0):
   level selection depends only on [p] and [base], never on *when* the
   entry was pushed, so two entries with equal priority always sit in
   the same ring, in push order, at every moment of the wheel's life.
   That is the stability argument: cascades drain a ring front-to-back
   and re-file, preserving relative order, and a level-0 ring holds
   exactly one priority (all higher digits equal base's), so popping
   ring-FIFO is exactly (prio, seq) order. A delta-based wheel (level
   from [p - now]) would not have this property.

   Occupancy is tracked by one 32-bit bitmap per level plus a 13-bit
   bitmap of non-empty levels, so finding the minimum is a couple of
   count-trailing-zeros scans. [min_prio] cascades on demand: it
   advances [base] to the window of the lowest occupied upper slot and
   re-files that slot's entries into lower levels until the minimum
   reaches level 0.

   Monotonicity contract: [push] requires prio >= the last value
   returned by [min_prio]/[pop_min] (the wheel's notion of "now").
   The scheduler maintains this by construction — events are always
   scheduled at or after the current virtual clock. *)

let w_bits = 5
let w = 1 lsl w_bits (* 32 slots per level *)
let levels_max = 13

type level = {
  mutable occ : int; (* bitmap of non-empty slots *)
  rings : Iring.t array; (* per-slot FIFO of arena indices *)
}

(* Shared placeholder for unmaterialized levels. Never mutated (multiple
   wheels on multiple domains may hold it); [get_level] replaces the
   array element with a fresh level on first use. *)
let empty_level = { occ = 0; rings = [||] }

type 'a t = {
  (* struct-of-arrays arena *)
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  free : Iring.t; (* recycled arena indices *)
  mutable next_slot : int; (* bump allocator high-water mark *)
  mutable next_seq : int;
  mutable count : int;
  mutable base : int; (* floor of the current level-0 window *)
  mutable lvl_occ : int; (* bitmap of levels with occupied slots *)
  (* Exact minimum stored priority (-1 when empty), maintained
     incrementally so [min_prio] is a pure O(1) read: the scheduler's
     delay fast path probes it on every cpu/delay call, and a probe
     that cascaded (advancing [base]) mid-run could race ahead of the
     virtual clock and make pushes at the current time look "in the
     past". Cheap to keep exact: push is a compare, and after a pop the
     new minimum is either the next level-0 slot (one bitmap scan) or
     the minimum of the lowest occupied slot's ring (a scan the
     imminent cascade of that ring would pay for anyway). *)
  mutable cmin : int;
  levels : level array;
  dummy : 'a; (* parked in freed value cells; never observed *)
  (* Order audit under Slice.debug_checks: last popped (prio, seq). *)
  mutable last_prio : int;
  mutable last_seq : int;
}

let create ?(initial = 64) () =
  let initial = max 2 initial in
  let dummy : 'a = Obj.magic 0 in
  {
    prio = Array.make initial 0;
    seq = Array.make initial 0;
    vals = Array.make initial dummy;
    free = Iring.create ~initial:16 ();
    next_slot = 0;
    next_seq = 0;
    count = 0;
    base = 0;
    lvl_occ = 0;
    cmin = -1;
    levels = Array.make levels_max empty_level;
    dummy;
    last_prio = min_int;
    last_seq = min_int;
  }

let length t = t.count
let is_empty t = t.count = 0

(* Count trailing zeros of a non-zero bitmap (<= 32 bits), via a byte
   table: the min-scan runs once per event, so no bit-by-bit loops. *)
let tz8 =
  Array.init 256 (fun i ->
      if i = 0 then 8
      else begin
        let n = ref 0 in
        let v = ref i in
        while !v land 1 = 0 do
          incr n;
          v := !v lsr 1
        done;
        !n
      end)

let ctz m =
  if m land 0xff <> 0 then Array.unsafe_get tz8 (m land 0xff)
  else if (m lsr 8) land 0xff <> 0 then
    8 + Array.unsafe_get tz8 ((m lsr 8) land 0xff)
  else if (m lsr 16) land 0xff <> 0 then
    16 + Array.unsafe_get tz8 ((m lsr 16) land 0xff)
  else 24 + Array.unsafe_get tz8 ((m lsr 24) land 0xff)

let get_level t k =
  let l = Array.unsafe_get t.levels k in
  if l != empty_level then l
  else begin
    let l = { occ = 0; rings = Array.init w (fun _ -> Iring.create ~initial:4 ()) } in
    Array.unsafe_set t.levels k l;
    l
  end

(* Level of the most-significant base-32 digit where [p] differs from
   [base]: a digit count on [p lxor base]. *)
let rec level_of x k = if x < w then k else level_of (x lsr w_bits) (k + 1)

(* File arena entry [idx] into the wheel according to its priority and
   the current base. Shared by push and cascade, so filing is a pure
   function of (prio, base) — the stability invariant. *)
let place t idx =
  let p = Array.unsafe_get t.prio idx in
  let k = level_of (p lxor t.base) 0 in
  let l = get_level t k in
  let s = (p lsr (k * w_bits)) land (w - 1) in
  Iring.push (Array.unsafe_get l.rings s) idx;
  l.occ <- l.occ lor (1 lsl s);
  t.lvl_occ <- t.lvl_occ lor (1 lsl k)

let grow t =
  let cap = Array.length t.prio in
  let ncap = 2 * cap in
  let np = Array.make ncap 0 in
  let ns = Array.make ncap 0 in
  let nv = Array.make ncap t.dummy in
  Array.blit t.prio 0 np 0 cap;
  Array.blit t.seq 0 ns 0 cap;
  Array.blit t.vals 0 nv 0 cap;
  t.prio <- np;
  t.seq <- ns;
  t.vals <- nv

let push t ~prio v =
  if prio < t.base then invalid_arg "Twheel.push: priority is in the past";
  let idx =
    if Iring.is_empty t.free then begin
      if t.next_slot = Array.length t.prio then grow t;
      let i = t.next_slot in
      t.next_slot <- i + 1;
      i
    end
    else Iring.pop t.free
  in
  Array.unsafe_set t.prio idx prio;
  Array.unsafe_set t.seq idx t.next_seq;
  t.next_seq <- t.next_seq + 1;
  Array.unsafe_set t.vals idx v;
  place t idx;
  if t.count = 0 || prio < t.cmin then t.cmin <- prio;
  t.count <- t.count + 1

(* Cascade until the global minimum sits at level 0; return its
   priority. Requires count > 0. Terminates: each cascaded entry
   re-files at a strictly lower level (after the base advance, its xor
   with base has no bits at or above the cascaded digit). *)
let rec settle t =
  let k = ctz t.lvl_occ in
  if k = 0 then begin
    let l0 = Array.unsafe_get t.levels 0 in
    (t.base land lnot (w - 1)) lor ctz l0.occ
  end
  else begin
    let l = Array.unsafe_get t.levels k in
    let s = ctz l.occ in
    let shift = k * w_bits in
    (* Advance base into the cascaded slot's window: digits above k
       unchanged, digit k := s, digits below zeroed. All remaining
       entries are >= this floor (slot s was the lowest occupied slot of
       the lowest occupied level). *)
    t.base <- (t.base land lnot ((1 lsl (shift + w_bits)) - 1)) lor (s lsl shift);
    l.occ <- l.occ land lnot (1 lsl s);
    if l.occ = 0 then t.lvl_occ <- t.lvl_occ land lnot (1 lsl k);
    let ring = Array.unsafe_get l.rings s in
    let n = Iring.length ring in
    for _ = 1 to n do
      place t (Iring.pop ring)
    done;
    settle t
  end

let min_prio t = t.cmin

(* Minimum priority in [ring], by rotating it in place (pop n, push n:
   FIFO order is restored after a full rotation). Allocation-free. *)
let rec scan_ring t ring n m =
  if n = 0 then m
  else begin
    let idx = Iring.pop ring in
    let p = Array.unsafe_get t.prio idx in
    Iring.push ring idx;
    scan_ring t ring (n - 1) (if p < m then p else m)
  end

(* Recompute [cmin] after a pop. If level 0 is still occupied its lowest
   slot is the global minimum (upper-level entries all exceed the
   level-0 window). Otherwise the minimum lives in the lowest occupied
   slot of the lowest occupied level — its ring must be scanned, but
   the very next pop's cascade drains that ring anyway, so the scan at
   most doubles work already owed. *)
let refresh_min t =
  if t.count = 0 then t.cmin <- -1
  else begin
    let l0 = Array.unsafe_get t.levels 0 in
    if l0.occ <> 0 then t.cmin <- (t.base land lnot (w - 1)) lor ctz l0.occ
    else begin
      let k = ctz t.lvl_occ in
      let l = Array.unsafe_get t.levels k in
      let s = ctz l.occ in
      let ring = Array.unsafe_get l.rings s in
      t.cmin <- scan_ring t ring (Iring.length ring) max_int
    end
  end

let pop_min t =
  if t.count = 0 then invalid_arg "Twheel.pop_min: empty";
  let m = settle t in
  if !Slice.debug_checks && m <> t.cmin then
    failwith
      (Printf.sprintf "Twheel: cached min %d disagrees with settle %d" t.cmin m);
  let l0 = Array.unsafe_get t.levels 0 in
  let s = ctz l0.occ in
  let ring = Array.unsafe_get l0.rings s in
  let idx = Iring.pop ring in
  if Iring.is_empty ring then begin
    l0.occ <- l0.occ land lnot (1 lsl s);
    if l0.occ = 0 then t.lvl_occ <- t.lvl_occ land lnot 1
  end;
  t.count <- t.count - 1;
  let v = Array.unsafe_get t.vals idx in
  Array.unsafe_set t.vals idx t.dummy;
  Iring.push t.free idx;
  refresh_min t;
  if !Slice.debug_checks then begin
    let p = Array.unsafe_get t.prio idx in
    let q = Array.unsafe_get t.seq idx in
    if p < t.last_prio || (p = t.last_prio && q <= t.last_seq) then
      failwith
        (Printf.sprintf
           "Twheel: order violation: popped (%d,%d) after (%d,%d)" p q
           t.last_prio t.last_seq);
    t.last_prio <- p;
    t.last_seq <- q
  end;
  v
