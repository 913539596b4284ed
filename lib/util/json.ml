type t =
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [lines] containers, counted from the outside, put one member per line *)
let rec add b ~lines ~indent v =
  let inner = indent ^ "  " in
  let members open_ close add_member items =
    Buffer.add_char b open_;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        if lines > 0 then Buffer.add_string b ("\n" ^ inner)
        else if i > 0 then Buffer.add_char b ' ';
        add_member item)
      items;
    if lines > 0 && items <> [] then Buffer.add_string b ("\n" ^ indent);
    Buffer.add_char b close
  in
  let add_inner = add b ~lines:(lines - 1) ~indent:inner in
  match v with
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Fixed (d, x) ->
      Buffer.add_string b
        (if Float.is_finite x then Printf.sprintf "%.*f" d x else "null")
  | String s -> add_string b s
  | Raw s -> Buffer.add_string b s
  | List xs -> members '[' ']' add_inner xs
  | Obj kvs ->
      members '{' '}'
        (fun (k, x) ->
          add_string b k;
          Buffer.add_string b ": ";
          add_inner x)
        kvs

let render ~lines v =
  let b = Buffer.create 256 in
  add b ~lines ~indent:"" v;
  Buffer.contents b

let to_string v = render ~lines:0 v
let pretty v = render ~lines:2 v

let write path v =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (pretty v);
      output_char oc '\n')
