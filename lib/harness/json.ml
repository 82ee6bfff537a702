type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shortest of %.15g..%.17g that reads back exactly; 17 digits
   always do. *)
let float_repr f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let is_container = function List _ | Obj _ -> true | _ -> false

let check_keys members =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then invalid_arg (Printf.sprintf "Json: duplicate key %S" k);
      Hashtbl.add seen k ())
    members

(* Multi-line containers put each element on its own line, two spaces
   deeper than the bracket's line. *)
let add_seq b ~indent ~multiline opening closing elt xs =
  Buffer.add_char b opening;
  if multiline && xs <> [] then begin
    let inner = indent + 2 in
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b (String.make inner ' ');
        elt ~indent:inner x)
      xs;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ')
  end
  else
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        elt ~indent x)
      xs;
  Buffer.add_char b closing

let rec add b ~indent ~top v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | String s -> add_escaped b s
  | List xs ->
      let multiline = top || (xs <> [] && List.for_all is_container xs) in
      add_seq b ~indent ~multiline '[' ']' (add b ~top:false) xs
  | Obj members ->
      check_keys members;
      let member ~indent (k, x) =
        add_escaped b k;
        Buffer.add_string b ": ";
        add b ~indent ~top:false x
      in
      add_seq b ~indent ~multiline:top '{' '}' member members

let to_string v =
  let b = Buffer.create 1024 in
  add b ~indent:0 ~top:true v;
  Buffer.contents b

let to_file path v =
  let s = to_string v in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (s ^ "\n"))
