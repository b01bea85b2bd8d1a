(** Synchronization primitives in virtual time.

    FIFO-fair and deterministic: waiters are woken in arrival order at the
    current virtual instant. *)

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  (** Raises [Invalid_argument] if the mutex is not held. *)

  val try_lock : t -> bool
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically release the mutex and block; re-acquires before return. *)

  val broadcast : t -> unit
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val value : t -> int
end

(** Single-assignment cell: the rendezvous used for asynchronous IO
    completion ([msnap_wait], disk interrupts). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled; immediate if already filled. *)

  val is_filled : 'a t -> bool
  val peek : 'a t -> 'a option
end

(** Bounded FIFO channel between threads. *)
module Channel : sig
  type 'a t

  val create : capacity:int -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  val length : 'a t -> int
end
