module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Pool = Msnap_util.Pool

type backend = {
  b_label : string;
  b_read_page : int -> Bytes.t option;
  b_commit : (int * Bytes.t) list -> unit;
}

type txn = {
  dirty : (int, unit) Hashtbl.t;
  undo : (int, Bytes.t) Hashtbl.t; (* pre-images for rollback *)
  mutable new_pages : int list;
  hwm_at_begin : int;
}

type t = {
  backend : backend;
  cache : (int, Bytes.t) Hashtbl.t;
  mutable hwm : int; (* highest allocated page number *)
  mutable txn : txn option;
  write_lock : Sync.Mutex.t;
}

(* Userspace cost of a page-cache probe (hash + pin). *)
let cache_probe_cost = 120

let create backend =
  let t =
    { backend; cache = Hashtbl.create 1024; hwm = 1; txn = None;
      write_lock = Sync.Mutex.create () }
  in
  (* Page 1 always exists (database header / catalog). *)
  (match backend.b_read_page 1 with
  | Some b -> Hashtbl.replace t.cache 1 b
  | None -> Hashtbl.replace t.cache 1 (Pool.alloc_zeroed Page.size));
  t

let backend_label t = t.backend.b_label

let begin_write t =
  Sync.Mutex.lock t.write_lock;
  assert (t.txn = None);
  t.txn <-
    Some
      { dirty = Hashtbl.create 16; undo = Hashtbl.create 16; new_pages = [];
        hwm_at_begin = t.hwm }

let the_txn t =
  match t.txn with
  | Some txn -> txn
  | None -> invalid_arg "Pager: no open transaction"

let get_page t pgno =
  Sched.cpu cache_probe_cost;
  match Hashtbl.find_opt t.cache pgno with
  | Some b -> b
  | None ->
    let b =
      match t.backend.b_read_page pgno with
      | Some b -> b
      | None -> Pool.alloc_zeroed Page.size
    in
    Hashtbl.replace t.cache pgno b;
    if pgno > t.hwm then t.hwm <- pgno;
    b

let page_for_write t pgno =
  let txn = the_txn t in
  let b = get_page t pgno in
  if not (Hashtbl.mem txn.dirty pgno) then begin
    Hashtbl.replace txn.dirty pgno ();
    (* Pooled pre-image: private to the transaction, recycled when commit
       discards the undo log (rollback promotes it into the cache
       instead). *)
    let pre = Pool.alloc Page.size in
    Bytes.blit b 0 pre 0 Page.size;
    Hashtbl.replace txn.undo pgno pre
  end;
  b

let alloc_page t =
  let txn = the_txn t in
  t.hwm <- t.hwm + 1;
  let pgno = t.hwm in
  Hashtbl.replace t.cache pgno (Pool.alloc_zeroed Page.size);
  Hashtbl.replace txn.dirty pgno ();
  txn.new_pages <- pgno :: txn.new_pages;
  pgno

let commit t =
  let txn = the_txn t in
  let pages =
    Hashtbl.fold (fun pgno () acc -> (pgno, Hashtbl.find t.cache pgno) :: acc)
      txn.dirty []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if pages <> [] then t.backend.b_commit pages;
  Hashtbl.iter (fun _ pre -> Pool.recycle pre) txn.undo;
  t.txn <- None;
  Sync.Mutex.unlock t.write_lock

let rollback t =
  let txn = the_txn t in
  Hashtbl.iter
    (fun pgno pre ->
      (* The promoted pre-image replaces the mutated cache buffer, which
         nothing else references — recycle it. *)
      (match Hashtbl.find_opt t.cache pgno with
      | Some cur when cur != pre -> Pool.recycle cur
      | _ -> ());
      Hashtbl.replace t.cache pgno pre)
    txn.undo;
  List.iter
    (fun pgno ->
      (* Pages allocated by the aborted transaction never made it to the
         backend; their zeroed buffers go straight back. New pages have
         no undo entry (alloc_page marks them dirty), so this cannot
         double-recycle a promoted pre-image. *)
      (match Hashtbl.find_opt t.cache pgno with
      | Some b -> Pool.recycle b
      | None -> ());
      Hashtbl.remove t.cache pgno)
    txn.new_pages;
  t.hwm <- txn.hwm_at_begin;
  (* New pages above the pre-txn high-water mark are abandoned; the page
     numbers are not reused, like SQLite's freelist-less fast path. *)
  t.txn <- None;
  Sync.Mutex.unlock t.write_lock

let in_txn t = t.txn <> None
let npages t = t.hwm

(* End-of-run teardown: the page cache holds one pooled buffer per page
   ever touched — for a TATP-sized database that is tens of thousands
   of 4 KiB buffers, by far the largest pooled working set in the
   bench. Returning them lets the next experiment on this domain run
   nearly miss-free. *)
let dispose t =
  if t.txn <> None then invalid_arg "Pager.dispose: open transaction";
  Hashtbl.iter (fun _ b -> Pool.recycle b) t.cache;
  Hashtbl.reset t.cache

let restore_hwm t hwm = if hwm > t.hwm then t.hwm <- hwm

let hwm_changed_in_txn t =
  match t.txn with Some txn -> t.hwm <> txn.hwm_at_begin | None -> false
let dirty_pages t =
  match t.txn with Some txn -> Hashtbl.length txn.dirty | None -> 0
