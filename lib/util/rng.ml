(* splitmix64 with its 64-bit state unboxed in an 8-byte buffer. The
   simulator draws from Rng.t inside every workload inner loop, so a
   draw must allocate nothing: the mix runs in {!Mix64}, which returns
   native ints. *)

type t = Bytes.t

let create = Mix64.create
let split = Mix64.split
let bits64 = Mix64.next_bits64

let int t bound =
  assert (bound > 0);
  Mix64.next_low62 t mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* A 53-bit value; exact in both int64 and float. *)
let float t = float_of_int (Mix64.next_top53 t) *. 0x1p-53
let bool t = Mix64.next_low62 t land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let fill t b ~pos ~len =
  for i = pos to pos + len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done

let bytes t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  b

let string t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  Bytes.unsafe_to_string b
