(** Counters and latency means for experiment reporting, keyed by
    typed {!Probe}s.

    The case studies instrument their persistence calls
    ([Probe.db_fsync], [Probe.db_write], [Probe.db_memsnap], ...)
    through this registry; the benchmark harness reads the totals to
    regenerate the paper's syscall-count tables (Tables 7 and 9) and
    the per-phase means of Tables 2, 5 and 10. Storage is one
    {!Pstats} store indexed by probe id.

    State is domain-local — call {!reset} between experiments. Every
    entry point takes a typed {!Probe}; use {!Probe.make} for ad-hoc
    names (tests, one-off experiments). *)

val reset : unit -> unit

val incr : ?by:int -> Probe.t -> unit
(** Bump a counter. *)

val count : Probe.t -> int
(** Current value (0 if never bumped). *)

val add_sample : Probe.t -> int -> unit
(** Record one latency sample (ns); also bumps the probe's counter. *)

val mean_ns : Probe.t -> float
(** Mean of the samples recorded under a probe (0 if none). *)

val samples : Probe.t -> int

val counters : unit -> (string * int) list
(** Every probe with a nonzero counter, sorted by name. *)

(** {2 Cell isolation}

    Used by [Msnap_sim.Cell] to give each parallel simulation cell a
    private store, merged back into the submitting experiment's store
    at force time in submission order ({!Pstats.merge}). Bracket, don't
    interleave. *)

type snapshot

val cell_begin : unit -> snapshot
(** Install a fresh empty store on this domain; returns the displaced
    one. *)

val cell_end : snapshot -> snapshot
(** Restore the displaced store; returns the cell's store for a later
    {!cell_merge}. *)

val cell_merge : snapshot -> unit
(** Fold a finished cell's counters and samples into the current
    store. The snapshot must not be used again. *)

val timed : Probe.t -> (unit -> 'a) -> 'a
(** Run the callback, recording its elapsed virtual time as a sample.
    When tracing is enabled, also emits the section as a trace span in
    the probe's subsystem category. *)

val timed_begin : unit -> int
val timed_end : ?argi:string * int -> Probe.t -> int -> unit
(** Closure-free bracket form of {!timed} for hot call sites:
    [let t0 = timed_begin () in ...; timed_end probe t0]. Not recorded
    if the section raises (same as {!timed}). [argi] is passed through
    to the trace span ({!Trace.complete}). *)

