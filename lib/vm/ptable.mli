(** 4-level radix page table.

    Mirrors the x86-64 structure: inner nodes fan out 512 ways; leaves hold
    PTE words. The module exposes both the translations and the *shape* of
    the table, because the paper's Figure 1 compares protection-reset
    strategies by how they traverse it:

    - scanning a whole mapping's PTE slots ([scan_range]),
    - walking from the root once per page ([walk]),
    - or revisiting a recorded slot directly ({!Ptloc}).

    Traversal cost is charged by the caller from the visit counts these
    functions return, keeping policy out of the data structure. *)

type t

val create : unit -> t

val lookup : t -> int -> Pte.t
(** [lookup t vpn] is the PTE (possibly {!Pte.empty}); no allocation. *)

val walk : t -> int -> Ptloc.t
(** Walk from the root to the PTE slot for [vpn], allocating intermediate
    nodes as needed. 4 node visits. *)

val find_loc : t -> int -> Ptloc.t option
(** Like {!walk} but without allocating: [None] if no leaf exists. *)

val set : t -> int -> Pte.t -> unit

val scan_range : t -> vpn:int -> n:int -> f:(int -> Ptloc.t -> unit) -> int
(** Visit every *present* PTE in [vpn, vpn+n); returns the number of PTE
    slots inspected (present or not, in existing leaves), which is the cost
    driver of the baseline "traverse the mapping's page tables" strategy.
    Absent subtrees are skipped the way real scans skip empty PML entries,
    but each existing leaf contributes its full slot count. *)

