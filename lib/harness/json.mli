(** The one JSON printer behind every [BENCH_*.json] and [--json] file
    (no JSON library in the toolchain). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Printed with the fewest digits that read back to the same
          float, always with a ['.'] or an exponent so it stays a float.
          NaN and infinities print as [null]: a broken cell (zero-length
          run, a rate divided by zero) must fail a smoke check, never
          pass as a plausible number. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Members print as ["key": value], separated by [", "]. The top-level
    value, and any array whose elements are all arrays or objects, puts
    one element per line; everything else prints on one line.
    @raise Invalid_argument if one object has the same key twice. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] and a final newline to [path]. *)
