module Slice = Msnap_util.Slice

module type S = sig
  type t

  val name : t -> string
  val size : t -> int
  val writev : t -> (int * Slice.t) list -> unit
  val write_slice : t -> off:int -> Slice.t -> unit
  val write : t -> off:int -> Bytes.t -> unit
  val read_into : t -> off:int -> Slice.t -> unit
  val read : t -> off:int -> len:int -> Bytes.t
  val flush : t -> unit
  val barrier : t -> unit
  val fail_power : t -> torn_seed:int -> unit
  val restore_power : t -> unit
  val stats : t -> Disk.stats
  val reset_stats : t -> unit
  val dispose : t -> unit
  val attach_record : t -> Record.t -> unit
  val detach_record : t -> unit
  val members : t -> int
  val member_size : t -> member:int -> int
  val peek : t -> member:int -> off:int -> len:int -> Bytes.t
  val poke : t -> member:int -> off:int -> data:Bytes.t -> unit
end

type t = Dev : (module S with type t = 'a) * 'a -> t

(* A stripe makes writes durable at command completion, so a barrier —
   "all prior IO on media before any later IO" — needs exactly a queue
   drain. *)
module Stripe_backend = struct
  include Stripe

  let barrier = Stripe.flush
end

let of_stripe s = Dev ((module Stripe_backend), s)

let name (Dev ((module D), d)) = D.name d
let size (Dev ((module D), d)) = D.size d
let writev (Dev ((module D), d)) segs = D.writev d segs
let write_slice (Dev ((module D), d)) ~off s = D.write_slice d ~off s
let write (Dev ((module D), d)) ~off b = D.write d ~off b
let read_into (Dev ((module D), d)) ~off s = D.read_into d ~off s
let read (Dev ((module D), d)) ~off ~len = D.read d ~off ~len
let flush (Dev ((module D), d)) = D.flush d
let barrier (Dev ((module D), d)) = D.barrier d
let fail_power (Dev ((module D), d)) ~torn_seed = D.fail_power d ~torn_seed
let restore_power (Dev ((module D), d)) = D.restore_power d
let stats (Dev ((module D), d)) = D.stats d
let reset_stats (Dev ((module D), d)) = D.reset_stats d
let dispose (Dev ((module D), d)) = D.dispose d
let attach_record (Dev ((module D), d)) r = D.attach_record d r
let detach_record (Dev ((module D), d)) = D.detach_record d
let members (Dev ((module D), d)) = D.members d
let member_size (Dev ((module D), d)) ~member = D.member_size d ~member
let peek (Dev ((module D), d)) ~member ~off ~len = D.peek d ~member ~off ~len
let poke (Dev ((module D), d)) ~member ~off ~data = D.poke d ~member ~off ~data
