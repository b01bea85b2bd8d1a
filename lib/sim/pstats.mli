(** Per-probe statistics: four int columns indexed by {!Probe.id}.

    For every probe the store keeps a [count] (events or counter bumps),
    the number of [samples] among them, the [total] of the sampled
    values and their [max]. {!Metrics} keeps one store per domain (the
    experiment's counters and latency means) and {!Trace} keeps one
    while tracing is on (the per-probe span summary); [Cell] folds a
    finished cell's stores into the forcing domain's with {!merge}.

    Ints only: a mean is [total / samples], exact as long as the total
    stays below 2{^53} ns (about 104 days of virtual time). *)

type t

val create : unit -> t
(** An empty store. Columns grow on demand as probes are interned. *)

val incr : t -> Probe.t -> int -> unit
(** [incr t p n] adds [n] to [p]'s count only. *)

val sample : t -> Probe.t -> int -> unit
(** Record one value: bumps count and samples, adds the value (negative
    values count as 0) to the total and raises the max. *)

val merge : into:t -> t -> unit
(** Add the source's counts, samples and totals into [into] and take the
    larger max, growing [into] for probes interned after it was sized. *)

val count : t -> Probe.t -> int
val samples : t -> Probe.t -> int
val total : t -> Probe.t -> int

val iter :
  t ->
  (Probe.t -> count:int -> samples:int -> total:int -> max:int -> unit) ->
  unit
(** Visit every probe with a nonzero count, in {!Probe.id} order. *)
