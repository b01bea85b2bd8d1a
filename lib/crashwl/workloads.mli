(** The scripted crash workloads — one {!Msnap_faults.Checker.workload}
    per engine, ready for the checker or the [msnap crashcheck] CLI.

    Each script runs single-threaded on a two-disk stripe, records one
    history step per acked durability point, and is deterministic in its
    command stream, so every crash point the checker visits is a
    replayable [(prefix, torn_seed)] pair. *)

val objstore_workload : Msnap_faults.Checker.workload
val fs_workload : Msnap_faults.Checker.workload

val all : Msnap_faults.Checker.workload list
(** All six, in canonical order: msnap, objstore, fs, sqlite, pg,
    rocks. *)

val by_name : string -> Msnap_faults.Checker.workload option
val names : string list
