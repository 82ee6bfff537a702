let line_words = 16

(* Round [width + line_words - 1] up to whole 128-byte units: the last
   word of row i and the first of row i+1 are then [line_words] words
   apart, whatever [width] is. *)
let stride ~width =
  if width <= 0 then invalid_arg "Padded_rows.stride: width must be positive";
  line_words * ((width + (2 * line_words) - 2) / line_words)

let base ~width i = (i + 1) * stride ~width

let make ~rows ~width v = Array.make ((rows + 2) * stride ~width) v
