type t = int Atomic.t array

(* Allocate a junk block between consecutive atomics so the 2-word atomic
   records land on distinct cache lines (a 14-word block + headers spans
   more than 64 bytes on amd64) -- but only while they sit in the minor
   heap. Promotion copies live blocks only, so the dead junk is dropped
   and the cells end up packed together in one major-heap size class:
   three cells can share a single 64-byte line after a major GC. *)
let create n =
  Array.init n (fun _ ->
      let cell = Atomic.make 0 in
      let _pad : int array = Array.make 14 0 in
      ignore (Sys.opaque_identity _pad);
      cell)

let length = Array.length

let get t i = Atomic.get t.(i)

let cell t i = t.(i)

let set t i v = Atomic.set t.(i) v

let incr t i = Atomic.incr t.(i)

let add t i v = ignore (Atomic.fetch_and_add t.(i) v)

let sum t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t

let max_value t = Array.fold_left (fun acc c -> max acc (Atomic.get c)) min_int t
