(* One flat int array, four slots per probe at [4 * Probe.id]: count,
   samples, total, max. A probe interned after the store was sized grows
   it once, to the current probe count. *)
type t = { mutable cells : int array }

let width = 4
let create () = { cells = [||] }

let grow t pid =
  let a = Array.make (width * max (pid + 1) (Probe.count ())) 0 in
  Array.blit t.cells 0 a 0 (Array.length t.cells);
  t.cells <- a

let slot t p =
  let pid = Probe.id p in
  if width * pid >= Array.length t.cells then grow t pid;
  width * pid

let incr t p n =
  let i = slot t p in
  t.cells.(i) <- t.cells.(i) + n

let sample t p v =
  let i = slot t p in
  let c = t.cells in
  c.(i) <- c.(i) + 1;
  c.(i + 1) <- c.(i + 1) + 1;
  if v > 0 then begin
    c.(i + 2) <- c.(i + 2) + v;
    if v > c.(i + 3) then c.(i + 3) <- v
  end

let merge ~into src =
  let n = Array.length src.cells in
  if n > Array.length into.cells then grow into ((n / width) - 1);
  let d = into.cells and s = src.cells in
  for i = 0 to (n / width) - 1 do
    let j = width * i in
    d.(j) <- d.(j) + s.(j);
    d.(j + 1) <- d.(j + 1) + s.(j + 1);
    d.(j + 2) <- d.(j + 2) + s.(j + 2);
    if s.(j + 3) > d.(j + 3) then d.(j + 3) <- s.(j + 3)
  done

let get t p k =
  let i = (width * Probe.id p) + k in
  if i < Array.length t.cells then t.cells.(i) else 0

let count t p = get t p 0
let samples t p = get t p 1
let total t p = get t p 2

let iter t f =
  let c = t.cells in
  for pid = 0 to (Array.length c / width) - 1 do
    let i = width * pid in
    if c.(i) <> 0 then
      f (Probe.of_id pid) ~count:c.(i) ~samples:c.(i + 1) ~total:c.(i + 2)
        ~max:c.(i + 3)
  done
