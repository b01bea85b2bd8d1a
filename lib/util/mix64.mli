(** splitmix64 — the allocation-free core under {!Rng} (draws) and
    {!Wire.checksum} (on-media checksums). The 64-bit mix runs on
    unboxed [int64] inside this module only; callers see native ints and
    an 8-byte generator state. *)

val create : int -> Bytes.t
(** [create seed] is a fresh 8-byte state holding [Int64.of_int seed]. *)

val split : Bytes.t -> Bytes.t
(** [split st] advances [st] and returns a new state holding the draw. *)

val next_low62 : Bytes.t -> int
(** Advance and return the low 62 bits of the draw (non-negative). *)

val next_top53 : Bytes.t -> int
(** Advance and return the draw shifted right by 11 (53 bits). *)

val next_bits64 : Bytes.t -> int64
(** Advance and return the whole draw. *)

val fold : init:int -> Bytes.t -> pos:int -> len:int -> int
(** The {!Wire.checksum} fold over [b[pos..pos+len)], unchecked: the
    caller validates the range. *)
