(* Spans recorded from the benchmark's own files, around the calls into
   each layer. Every domain owns one [buf] (indexed by thread id): the
   traced scheme wrapper adds leaf spans to it, the worker loop opens
   and closes one root span per SET call. Nothing allocates on the hot
   path: aggregates are int arrays, sampled spans go into a
   preallocated record array and are written out after the run. *)

(* The CLOCK_MONOTONIC stub that Pop_runtime.Clock uses, declared here
   with its unboxed result so reading it allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (clock_ns ())

(* Span kinds. [op] is the root span of one SET call; all others are
   scheme calls made while it is open (or between operations, for
   [poll]). *)
let read = 0

let check = 1

let alloc = 2

let retire = 3

let free_unpublished = 4

let start_op = 5

let end_op = 6

let poll = 7

let op = 8

let kinds = 9

let kind_name =
  [| "read"; "check"; "alloc"; "retire"; "free_unpublished"; "start_op"; "end_op"; "poll"; "op" |]

(* Every op whose id is a multiple of [sample_every] has all its spans
   recorded individually, up to [rec_cap] records per cell. *)
let sample_every = 64

let rec_cap = 1 lsl 15

type buf = {
  count : int array;  (** Spans per kind. *)
  sum : int array;  (** Nanoseconds per kind. *)
  mutable self_sum : int;  (** Root-span time not covered by children. *)
  mutable in_op : bool;
  mutable op_id : int;
  mutable op_t0 : int;
  mutable child : int;  (** Child nanoseconds inside the open root. *)
  mutable sampled : bool;
  mutable dropped : bool;  (** A child of the sampled op did not fit. *)
  recs : int array;  (** [op_id; kind; t0; t1] per record. *)
  mutable nrec : int;
  retire_lat : Pop_runtime.Histogram.t;  (** Every retire span, for the pass-pause tail. *)
}

let create () =
  {
    count = Array.make kinds 0;
    sum = Array.make kinds 0;
    self_sum = 0;
    in_op = false;
    op_id = 0;
    op_t0 = 0;
    child = 0;
    sampled = false;
    dropped = false;
    recs = Array.make (4 * rec_cap) 0;
    nrec = 0;
    retire_lat = Pop_runtime.Histogram.create ();
  }

(* One buffer per thread id the benchmark registers (two workers plus
   the prefill slot); a traced worker puts a fresh one in its slot. *)
let bufs = Array.init 3 (fun _ -> create ())

let[@inline] push b id kind t0 t1 =
  let i = 4 * b.nrec in
  Array.unsafe_set b.recs i id;
  Array.unsafe_set b.recs (i + 1) kind;
  Array.unsafe_set b.recs (i + 2) t0;
  Array.unsafe_set b.recs (i + 3) t1;
  b.nrec <- b.nrec + 1

let leaf b kind t0 t1 =
  let d = t1 - t0 in
  Array.unsafe_set b.count kind (Array.unsafe_get b.count kind + 1);
  Array.unsafe_set b.sum kind (Array.unsafe_get b.sum kind + d);
  if kind = retire then Pop_runtime.Histogram.record b.retire_lat d;
  if b.in_op then begin
    b.child <- b.child + d;
    if b.sampled then if b.nrec < rec_cap then push b b.op_id kind t0 t1 else b.dropped <- true
  end

let op_begin b id =
  b.in_op <- true;
  b.op_id <- id;
  b.child <- 0;
  b.dropped <- false;
  b.sampled <- id land (sample_every - 1) = 0 && b.nrec < rec_cap;
  b.op_t0 <- now ()

let op_end b =
  let t1 = now () in
  let d = t1 - b.op_t0 in
  b.in_op <- false;
  b.count.(op) <- b.count.(op) + 1;
  b.sum.(op) <- b.sum.(op) + d;
  b.self_sum <- b.self_sum + d - b.child;
  if b.sampled && (not b.dropped) && b.nrec < rec_cap then push b b.op_id op b.op_t0 t1

(* The sampled-op check: for every recorded root span, its children lie
   inside it and do not overlap, so the root's self time (its duration
   minus the part of it its children cover) plus the children's
   durations equals the root's duration. Children precede their root
   in the record array; children of an op whose root was not recorded
   are skipped. Returns (ops verified, ops that failed). *)
let verify b =
  let ok = ref 0 and bad = ref 0 in
  let start = ref 0 in
  for r = 0 to b.nrec - 1 do
    let at k = b.recs.((4 * r) + k) in
    if at 1 = op then begin
      let id = at 0 and t0 = at 2 and t1 = at 3 in
      let children = ref [] in
      for c = !start to r - 1 do
        if b.recs.(4 * c) = id then
          children := (b.recs.((4 * c) + 2), b.recs.((4 * c) + 3)) :: !children
      done;
      let sorted = List.sort compare !children in
      let child_sum = List.fold_left (fun a (s, e) -> a + (e - s)) 0 sorted in
      (* The covered part of [t0, t1]: union of the clipped children. *)
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (s, e) ->
            let s = max s (max t0 hi) and e = min e t1 in
            if e > s then (acc + (e - s), e) else (acc, hi))
          (0, t0) sorted
      in
      let self = t1 - t0 - covered in
      if self >= 0 && self + child_sum = t1 - t0 then incr ok else incr bad;
      start := r + 1
    end
  done;
  (!ok, !bad)

(* The calibrated cost of an empty span: a clock pair with nothing
   between, recorded like a leaf. Median of five batches. *)
let calibrate () =
  let reps = 5 and n = 200_000 in
  let per_batch () =
    let b = create () in
    for _ = 1 to n do
      let t0 = now () in
      leaf b poll t0 (now ())
    done;
    float_of_int b.sum.(poll) /. float_of_int b.count.(poll)
  in
  let xs = Array.init reps (fun _ -> per_batch ()) in
  Array.sort compare xs;
  xs.(reps / 2)
