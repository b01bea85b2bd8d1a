(* A block-device backend that forwards every call to a real backend and
   records a host-time span around each command. It adds no simulated
   work: no virtual time, no CPU charge, no extra device command. *)

module Device = Msnap_blockdev.Device

let cmd = Span.make "blockdev.cmd"

module Make (D : Device.S) : Device.S with type t = D.t = struct
  include D

  let writev t segs = Span.wrap cmd (fun () -> D.writev t segs)
  let write_slice t ~off s = Span.wrap cmd (fun () -> D.write_slice t ~off s)
  let write t ~off b = Span.wrap cmd (fun () -> D.write t ~off b)
  let read_into t ~off s = Span.wrap cmd (fun () -> D.read_into t ~off s)
  let read t ~off ~len = Span.wrap cmd (fun () -> D.read t ~off ~len)
  let flush t = Span.wrap cmd (fun () -> D.flush t)
  let barrier t = Span.wrap cmd (fun () -> D.barrier t)
end

let wrap (Device.Dev ((module D), d)) =
  let module T = Make (D) in
  Device.Dev ((module T), d)
