(** False-sharing-avoiding arrays of per-thread atomic counters.

    A plain [int Atomic.t array] places the atomic cells next to each other
    on the heap, so two threads incrementing adjacent slots ping-pong the
    same cache line. [Striped] spaces the cells out by allocating padding
    blocks between them. That spacing holds only until the cells are
    promoted: the minor GC copies the live cells and drops the dead
    padding, so in the major heap adjacent cells share a line again.
    Cells written on every protected read therefore live in a
    {!Padded_rows} table instead (see DESIGN.md, "Per-thread layout");
    [Striped] remains for per-operation counters and flags. *)

type t
(** A fixed-size array of single-writer multi-reader counters. *)

val create : int -> t
(** [create n] makes [n] counters, all zero. *)

val length : t -> int

val get : t -> int -> int

val cell : t -> int -> int Atomic.t
(** Direct access to slot [i]'s cell, for hot paths that want to skip
    the array indexing. *)

val set : t -> int -> int -> unit

val incr : t -> int -> unit
(** Sequentially-consistent increment of slot [i]. *)

val add : t -> int -> int -> unit

val sum : t -> int
(** Racy sum across all slots (each slot read atomically). *)

val max_value : t -> int
(** Racy maximum across all slots. *)
