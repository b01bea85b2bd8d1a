(** Hierarchical timing wheel: a monotone priority queue over integer
    timestamps with FIFO order among equal priorities — the same
    (prio, seq) lexicographic order as the binary heap it replaces
    (kept as [Ref_pq] in the tests, the differential oracle), but
    allocation-free in steady state. Entries live in a recycled
    struct-of-arrays arena; wheel slots are FIFO rings of arena
    indices; occupancy bitmaps make the min-scan a couple of
    count-trailing-zeros lookups.

    Monotonicity contract: {!push} requires [prio >=] the last value
    returned by {!min_prio}/{!pop_min} (the wheel's notion of "now");
    [Invalid_argument] otherwise. The scheduler satisfies this by
    construction: events are scheduled at or after the virtual clock.

    Under [Slice.debug_checks], every pop is audited against the
    previous one for strict (prio, seq) order. *)

type 'a t

val create : ?initial:int -> unit -> 'a t
(** [initial] sizes the arena (it grows by doubling). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> unit
(** O(1). FIFO among equal priorities. *)

val min_prio : 'a t -> int
(** Exact priority of the next entry, or [-1] when empty. Pure O(1)
    (a cached-minimum read): safe to probe at any time, in particular
    from the scheduler's delay fast path between pops. *)

val pop_min : 'a t -> 'a
(** Remove and return the next entry: lowest priority, FIFO among
    equals. Cascades upper wheel levels on demand (amortized O(1) per
    event over a run), advancing the wheel's "now" up to the popped
    priority. Allocation-free. [Invalid_argument] when empty. *)
