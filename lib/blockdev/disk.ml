module Costs = Msnap_sim.Costs
module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Rng = Msnap_util.Rng
module Slice = Msnap_util.Slice
module Pool = Msnap_util.Pool

exception Powered_off

(* The persistent medium, stored sparsely: chunks are materialized on
   first write, and reads of never-written ranges yield zeros. Purely a
   host-memory optimization — a simulated machine no longer costs the
   host ~1 GiB of zeroed pages up front — with contents and simulated
   costs identical to a flat zero-initialized buffer. *)
module Medium = struct
  let chunk_bits = 18 (* 256 KiB *)
  let chunk_size = 1 lsl chunk_bits

  type t = { m_size : int; chunks : Bytes.t option array }

  let create size =
    { m_size = size;
      chunks = Array.make ((size + chunk_size - 1) / chunk_size) None }

  let size m = m.m_size

  let chunk_for_write m i =
    match m.chunks.(i) with
    | Some c -> c
    | None ->
      let c = Pool.alloc_zeroed chunk_size in
      m.chunks.(i) <- Some c;
      c

  (* Return every materialized chunk to the buffer pool. Only valid once
     nothing will read the medium again (end of a bench run). *)
  let dispose m =
    Array.iteri
      (fun i c ->
        match c with
        | Some b ->
          m.chunks.(i) <- None;
          Pool.recycle b
        | None -> ())
      m.chunks

  (* Copy [data[pos..pos+len)] to [off, off+len), one chunk at a time. *)
  let write m ~off data ~pos ~len =
    let off = ref off and pos = ref pos and len = ref len in
    while !len > 0 do
      let coff = !off land (chunk_size - 1) in
      let n = Int.min !len (chunk_size - coff) in
      Bytes.blit data !pos (chunk_for_write m (!off lsr chunk_bits)) coff n;
      off := !off + n;
      pos := !pos + n;
      len := !len - n
    done

  let read_into m ~off dst ~pos ~len =
    let off = ref off and pos = ref pos and len = ref len in
    while !len > 0 do
      let coff = !off land (chunk_size - 1) in
      let n = Int.min !len (chunk_size - coff) in
      (match m.chunks.(!off lsr chunk_bits) with
      | Some c -> Bytes.blit c coff dst !pos n
      | None -> Bytes.fill dst !pos n '\000');
      off := !off + n;
      pos := !pos + n;
      len := !len - n
    done
end

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ns : int;
}

type inflight = {
  segs : (int * Slice.t) list; (* (offset, data), commit order *)
  checksums : int list; (* issue-time content hashes; [] unless debugging *)
  t0 : int;
  dur : int;
  mutable torn : bool;
}

type t = {
  dname : string;
  medium : Medium.t;
  channels : Sync.Semaphore.t;
  mutable powered : bool;
  mutable inflight : inflight list;
  mutable recorder : (Record.t * int) option; (* recorder, member index *)
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_bytes_read : int;
  mutable s_bytes_written : int;
  mutable s_busy : int;
}

let create ?(name = "nvme") ~size () =
  let size = Msnap_util.Bits.round_up size Costs.sector in
  {
    dname = name;
    medium = Medium.create size;
    channels = Sync.Semaphore.create Costs.disk_channels;
    powered = true;
    inflight = [];
    recorder = None;
    s_reads = 0;
    s_writes = 0;
    s_bytes_read = 0;
    s_bytes_written = 0;
    s_busy = 0;
  }

let size t = Medium.size t.medium
let name t = t.dname

let check_power t = if not t.powered then raise Powered_off

let check_range t off len =
  if off < 0 || len < 0 || off + len > Medium.size t.medium then
    invalid_arg
      (Printf.sprintf "%s: IO out of range (off=%d len=%d size=%d)" t.dname off
         len (Medium.size t.medium))

(* The only payload copy on the write path: slice -> medium, at commit,
   one segment at a time in list order. Merging adjacent segments is
   [Stripe.coalesce]'s job, done when a stripe splits the command. *)
let rec commit medium = function
  | [] -> ()
  | (off, s) :: tl ->
    Medium.write medium ~off (Slice.buf s) ~pos:(Slice.pos s)
      ~len:(Slice.length s);
    commit medium tl

let verify_checksums t fl =
  if fl.checksums <> [] then
    List.iter2
      (fun (off, s) ck ->
        if Slice.checksum s <> ck then
          invalid_arg
            (Printf.sprintf
               "%s: ownership violation — slice at off=%d len=%d mutated \
                while its write command was in flight"
               t.dname off (Slice.length s)))
      fl.segs fl.checksums

let service t ~dur ~io =
  check_power t;
  Sync.Semaphore.acquire t.channels;
  let finally () = Sync.Semaphore.release t.channels in
  Fun.protect ~finally (fun () ->
      check_power t;
      t.s_busy <- t.s_busy + dur;
      io dur)

(* Trace one command from issue to commit, including any time queued on a
   channel. Queue depth is sampled at issue; args are only computed when
   tracing is on so the disabled path allocates nothing. Host-only. *)
let traced t probe ~bytes io =
  if not (Trace.is_on ()) then io ()
  else begin
    let t0 = Sched.now () in
    let qd =
      Costs.disk_channels - Sync.Semaphore.value t.channels
      + List.length t.inflight
    in
    match io () with
    | r ->
      Trace.complete probe ~dur:(Sched.now () - t0)
        ~args:[ ("dev", Trace.S t.dname); ("bytes", Trace.I bytes);
                ("qd_at_issue", Trace.I qd) ];
      r
    | exception exn ->
      Trace.complete probe ~dur:(Sched.now () - t0)
        ~args:[ ("dev", Trace.S t.dname); ("bytes", Trace.I bytes);
                ("qd_at_issue", Trace.I qd); ("aborted", Trace.I 1) ];
      raise exn
  end

let writev t segs =
  List.iter (fun (off, s) -> check_range t off (Slice.length s)) segs;
  let total = List.fold_left (fun a (_, s) -> a + Slice.length s) 0 segs in
  let dur = Costs.disk_base + Costs.disk_xfer total in
  traced t Probe.disk_write ~bytes:total @@ fun () ->
  service t ~dur ~io:(fun dur ->
      let checksums =
        if !Slice.debug_checks then List.map (fun (_, s) -> Slice.checksum s) segs
        else []
      in
      List.iter (fun (_, s) -> Slice.borrow s) segs;
      let fl = { segs; checksums; t0 = Sched.now (); dur; torn = false } in
      t.inflight <- fl :: t.inflight;
      (* Host-only history capture: the snapshot taken here equals the
         commit-time bytes by the slice ownership rule. *)
      let rcmd =
        match t.recorder with
        | None -> None
        | Some (r, member) ->
          Some (r, Record.issued r ~member ~segs ~t0:fl.t0 ~dur)
      in
      Sched.delay dur;
      t.inflight <- List.filter (fun f -> f != fl) t.inflight;
      if fl.torn then raise Powered_off;
      verify_checksums t fl;
      commit t.medium segs;
      List.iter (fun (_, s) -> Slice.release s) segs;
      t.s_writes <- t.s_writes + 1;
      t.s_bytes_written <- t.s_bytes_written + total;
      match rcmd with
      | None -> ()
      | Some (r, c) -> Record.committed r c ~now:(Sched.now ()))

let write_slice t ~off s = writev t [ (off, s) ]

let write t ~off data = writev t [ (off, Slice.of_bytes data) ]

let read_into t ~off dst =
  let len = Slice.length dst in
  check_range t off len;
  let dur = Costs.disk_base + Costs.disk_xfer len in
  traced t Probe.disk_read ~bytes:len @@ fun () ->
  service t ~dur ~io:(fun dur ->
      Sched.delay dur;
      t.s_reads <- t.s_reads + 1;
      t.s_bytes_read <- t.s_bytes_read + len;
      Medium.read_into t.medium ~off (Slice.buf dst) ~pos:(Slice.pos dst) ~len)

let read t ~off ~len =
  let buf = Bytes.create len in
  read_into t ~off (Slice.of_bytes buf);
  buf

let flush t =
  (* Draining the queue = acquiring every channel once. *)
  check_power t;
  traced t Probe.disk_flush ~bytes:0 @@ fun () ->
  let n = Costs.disk_channels in
  for _ = 1 to n do
    Sync.Semaphore.acquire t.channels
  done;
  for _ = 1 to n do
    Sync.Semaphore.release t.channels
  done;
  (* The drain is a durable-prefix boundary: this disk's queue is empty
     (no scheduling point separates the releases from here). *)
  match t.recorder with
  | None -> ()
  | Some (r, member) -> Record.flushed r ~member ~now:(Sched.now ())

(* The torn-sector budget of one in-flight command: whole sectors of a
   prefix whose length reflects how far the transfer had progressed,
   perturbed deterministically by the rng. Shared with
   [Msnap_faults.Image] so the offline reconstruction of a crash point
   can never drift from the live [fail_power] semantics. *)
let torn_sector_budget ~rng ~elapsed ~dur ~total_sectors =
  let frac =
    if dur <= 0 then 1.0
    else Float.min 1.0 (float_of_int elapsed /. float_of_int dur)
  in
  let base = int_of_float (frac *. float_of_int total_sectors) in
  let jitter = if total_sectors > 0 then Rng.int rng (total_sectors + 1) else 0 in
  Int.min total_sectors
    (Int.min base jitter + ((Int.max base jitter - Int.min base jitter) / 2))

(* Tear each in-flight command: commit whole sectors of a prefix whose
   length reflects how far the transfer had progressed, perturbed
   deterministically by the seed. The ownership rule guarantees the
   slices still hold their issue-time bytes, so tearing from them here
   equals tearing from an issue-time snapshot. *)
let fail_power t ~torn_seed =
  t.powered <- false;
  let rng = Rng.create (torn_seed lxor 0x5EED) in
  let tear fl =
    fl.torn <- true;
    verify_checksums t fl;
    let elapsed = Sched.now () - fl.t0 in
    let total_sectors =
      List.fold_left
        (fun a (_, s) ->
          a + ((Slice.length s + Costs.sector - 1) / Costs.sector))
        0 fl.segs
    in
    let committed =
      torn_sector_budget ~rng ~elapsed ~dur:fl.dur ~total_sectors
    in
    (* Commit the first [committed] sectors across segments in order. *)
    let remaining = ref committed in
    List.iter
      (fun (off, s) ->
        let len = Slice.length s in
        let sectors = (len + Costs.sector - 1) / Costs.sector in
        let take = Int.min sectors !remaining in
        remaining := !remaining - take;
        if take > 0 then begin
          let nbytes = Int.min len (take * Costs.sector) in
          Medium.write t.medium ~off (Slice.buf s) ~pos:(Slice.pos s)
            ~len:nbytes
        end;
        Slice.release s)
      fl.segs
  in
  List.iter tear t.inflight;
  t.inflight <- []

let restore_power t = t.powered <- true

let stats t =
  {
    reads = t.s_reads;
    writes = t.s_writes;
    bytes_read = t.s_bytes_read;
    bytes_written = t.s_bytes_written;
    busy_ns = t.s_busy;
  }

let reset_stats t =
  t.s_reads <- 0;
  t.s_writes <- 0;
  t.s_bytes_read <- 0;
  t.s_bytes_written <- 0;
  t.s_busy <- 0

(* End-of-run teardown: the medium's chunks go back to the buffer pool
   so the next simulated machine reuses them. Only valid once the device
   is idle and nothing will read it again. *)
let dispose t = Medium.dispose t.medium

(* --- crash-schedule capture (host-only) --- *)

let attach_record t r =
  if t.recorder <> None then invalid_arg (t.dname ^ ": recorder already attached");
  let member = Record.register r (fun ~torn_seed -> fail_power t ~torn_seed) in
  t.recorder <- Some (r, member)

let detach_record t = t.recorder <- None

(* Raw media access for crash-image reconstruction and comparison: no
   power check, no charge, no stats — this is the test harness looking
   at the platters, not a simulated IO. *)
let peek t ~off ~len =
  let out = Bytes.create len in
  Medium.read_into t.medium ~off out ~pos:0 ~len;
  out

let poke t ~off ~data =
  Medium.write t.medium ~off data ~pos:0 ~len:(Bytes.length data)
