(** Slotted-page format for the B+tree, SQLite-style.

    A 4 KiB page is either a leaf (cells carry key+value) or an interior
    node (cells carry child+separator key; keys ≤ separator live in that
    child, keys greater than every separator live in [right_child]). Cell
    pointers grow from the header; cell bodies grow from the page tail.

    Layout:
    {v
    0      u8   page type (1 = leaf, 2 = interior)
    1-2    u16  cell count
    3-4    u16  content start (lowest used tail offset)
    5-6    u16  fragmented free bytes
    7-10   u32  right child page (interior only)
    11..   u16  cell pointer array
    v} *)

type kind = Leaf | Interior

val size : int (* 4096 *)

val init : Bytes.t -> kind -> unit
val kind_of : Bytes.t -> kind
val ncells : Bytes.t -> int
val right_child : Bytes.t -> int
val set_right_child : Bytes.t -> int -> unit

val free_space : Bytes.t -> int
(** Usable bytes for one more cell (pointer included), after compaction. *)

val leaf_cell : Bytes.t -> int -> string * string
(** [leaf_cell page i] is the i-th (key, value). *)

val leaf_key : Bytes.t -> int -> string

val interior_cell : Bytes.t -> int -> int * string
(** [(child, separator_key)]. *)

val leaf_insert_at : Bytes.t -> int -> key:string -> value:string -> bool
(** Insert at cell index [i]; [false] if the page is full even after
    compaction. *)

val interior_insert_at : Bytes.t -> int -> child:int -> key:string -> bool

val delete_at : Bytes.t -> int -> unit

val interior_cell_size : key:string -> int

val search : Bytes.t -> string -> [ `Found of int | `Insert_before of int ]
(** Binary search among cell keys. *)
