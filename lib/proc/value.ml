type t = Bool of bool | Int of int | List of t list

let bool b = Bool b
let int n = Int n
let list l = List l

let type_name = function Bool _ -> "bool" | Int _ -> "int" | List _ -> "list"

let to_bool = function
  | Bool b -> b
  | v -> invalid_arg ("Proc.Value.to_bool: got a " ^ type_name v)

let to_int = function
  | Int n -> n
  | v -> invalid_arg ("Proc.Value.to_int: got a " ^ type_name v)

let to_list = function
  | List l -> l
  | v -> invalid_arg ("Proc.Value.to_list: got a " ^ type_name v)

(* Structural equality, as [( = )] on this type, with a physical
   shortcut: lowered states share unchanged value arrays and lists. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | List x, List y -> equal_list x y
  | _ -> false

and equal_list a b =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> equal x y && equal_list a b
  | _ -> false

let compare = compare

(* Full-depth hash, unlike [Hashtbl.hash], which stops after ten
   meaningful words and so conflates long lists with a common prefix. *)
let combine h x = (h * 0x2f0b3a49) + x

let rec hash_fold h = function
  | Int n -> combine h n
  | Bool b -> combine h (if b then 0x5bd1e995 else 0x1b873593)
  | List l -> List.fold_left hash_fold (combine h 0x27d4eb2f) l

let rec pp ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | List l ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp)
        l

let to_string v = Format.asprintf "%a" pp v
