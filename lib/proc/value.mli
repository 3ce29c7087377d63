(** Data values of the process algebra: booleans, integers and lists.

    These mirror the mCRL2 sorts used by the paper's specifications
    ([Bool], [Nat]/[Pos], and [List]). *)

type t = Bool of bool | Int of int | List of t list

val bool : bool -> t
val int : int -> t
val list : t list -> t

val to_bool : t -> bool
(** @raise Invalid_argument if the value is not a boolean. *)

val to_int : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val to_list : t -> t list
(** @raise Invalid_argument if the value is not a list. *)

val equal : t -> t -> bool
val equal_list : t list -> t list -> bool

val combine : int -> int -> int
(** One round of the hash: fold an int into a running hash. *)

val hash_fold : int -> t -> int
(** [hash_fold h v] folds [v] into the running hash [h], at full depth:
    lists that differ anywhere hash apart with high probability. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
