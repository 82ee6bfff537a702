(** Line-private per-thread rows inside one flat [int array].

    A cell that its owner writes on every protected read must not share
    a cache line with another thread's cell, or each write pulls the
    line away from the other thread. Padding with junk allocations (the
    [Striped]/[Fence] trick) does not survive the minor GC: promotion
    copies only live blocks, so the cells end up adjacent in the major
    heap. A single [int array] is moved as a unit by every collection
    and by compaction, so word offsets inside it — and hence the
    distances between rows — are a property of the layout alone.

    Row [i] of width [w] occupies words [base ~width:w i ..
    base ~width:w i + w - 1]. Rows sit at a constant {!stride}, with
    one stride of padding before the first row and at least one after
    the last, so any word of one row is at least [line_words] words
    (128 bytes on a 64-bit host: a full adjacent-line prefetch pair)
    away from any word of another row and from whatever the allocator
    places next to the array. *)

val line_words : int
(** Minimum distance, in words, between two rows: 16 (128 bytes). *)

val stride : width:int -> int
(** Distance between consecutive row bases: the smallest multiple of
    {!line_words} that is at least [width + line_words - 1] (16 for
    [width = 1]). Raises [Invalid_argument] if [width <= 0]. *)

val base : width:int -> int -> int
(** [base ~width i] is the offset of row [i]'s first word:
    [(i + 1) * stride ~width]. *)

val make : rows:int -> width:int -> int -> int array
(** [make ~rows ~width v] is a table for rows [0 .. rows-1], every word
    (padding included) set to [v]. *)
