(* splitmix64 on native int64: the finalizer, the generator step and the
   checksum word fold, all in this one compilation unit.

   Every loop that runs the mix lives here on purpose. OCaml keeps an
   [int64] unboxed only while the arithmetic is in view of the compiler;
   a call to an [int64 -> int64] function in another module boxes its
   argument and its result unless the call is inlined, and dune's dev
   profile compiles with [-opaque], which turns cross-module inlining
   off. So [mix] is private and inlined here, and the interface passes
   only native ints and the 8-byte state buffer. Both the draws and the
   checksum bytes are simulated values: test_util.ml pins them against
   the original Int64 reference and against recorded known answers. *)

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* [Int64.to_int z land max_int]: the low 62 bits, non-negative. *)
let[@inline] low62 z = Int64.to_int z land max_int

let create seed =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0 (Int64.of_int seed);
  st

(* state += golden gamma; the output is the mixed state. *)
let[@inline] next st =
  let z = Int64.add (Bytes.get_int64_ne st 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne st 0 z;
  mix z

let next_low62 st = low62 (next st)
let next_top53 st = Int64.to_int (Int64.shift_right_logical (next st) 11)
let next_bits64 st = next st

let split st =
  let child = Bytes.create 8 in
  Bytes.set_int64_ne child 0 (next st);
  child

let fold ~init b ~pos ~len =
  let h = ref (mix (Int64.of_int init)) in
  let full = len / 8 in
  for i = 0 to full - 1 do
    h := mix (Int64.add !h (Bytes.get_int64_le b (pos + (i * 8))))
  done;
  (* The tail, fewer than 8 bytes, accumulates big-endian. *)
  let word = ref 0 in
  for i = pos + (full * 8) to pos + len - 1 do
    word := (!word lsl 8) lor Char.code (Bytes.get b i)
  done;
  if len mod 8 <> 0 then h := mix (Int64.add !h (Int64.of_int !word));
  low62 (mix (Int64.add !h (Int64.of_int len)))
