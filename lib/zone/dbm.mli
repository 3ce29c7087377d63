(** Difference Bound Matrices over integer constants.

    A DBM of dimension [dim] represents a convex set of clock
    valuations (a {e zone}) as a flat [dim * dim] int array: entry
    [(i, j)] is an upper bound on [x_i - x_j], where clock index [0] is
    the constant reference clock (always 0) and indices [1 .. dim-1]
    are the real clocks.  Bounds carry a strictness bit in the low bit
    of the encoding: [(v, <=)] is [2v + 1], [(v, <)] is [2v], and
    [infinity] is {!inf}.  Encoded bounds compare with plain integer
    [<], and {!badd} adds them (strict wins).

    All operations except {!close} expect their input {e closed}
    (canonical: every entry is the tightest bound implied by the
    others, as computed by Floyd–Warshall) and preserve closure, with
    the exception of {!extrapolate_lu}, which re-closes internally.
    Emptiness surfaces as a [false] return from the tightening
    operations; an empty DBM must be discarded, not reused. *)

type t = int array

val inf : int
(** The encoded bound "no constraint". *)

val max_const : int
(** The largest constant magnitude a bound may carry ([max_int / 4]):
    below it, {!badd} of two finite bounds can neither overflow nor
    produce {!inf}.  Models comparing clocks against larger constants
    must be rejected before they reach a DBM. *)

val bnd : int -> strict:bool -> int
(** [bnd v ~strict] encodes the bound [(v, <)] or [(v, <=)]. *)

val value : int -> int
(** The constant of a finite encoded bound. *)

val is_strict : int -> bool

val badd : int -> int -> int
(** Bound addition: [(v1 + v2)], strict if either side is strict;
    absorbs {!inf}. *)

val zero : dim:int -> t
(** The zone where every clock equals 0 (closed). *)

val copy : t -> t

val close : dim:int -> t -> bool
(** Floyd–Warshall canonicalisation in place.  Returns [false] when
    the zone is empty (a negative cycle was found). *)

val constrain : dim:int -> t -> int -> int -> int -> bool
(** [constrain ~dim m i j b] adds the constraint [x_i - x_j <= b] (an
    encoded bound) to a closed DBM, re-canonicalising incrementally in
    O(dim^2).  Returns [false] when the zone becomes empty. *)

val up : dim:int -> t -> unit
(** Delay closure: remove the upper bounds of all clocks (future
    operator).  Preserves closure. *)

val reset : dim:int -> t -> int -> unit
(** [reset ~dim m i] sets clock [i] to 0.  Preserves closure. *)

val intersect : dim:int -> t -> t -> bool
(** [intersect ~dim m other] conjoins [other] into [m] (entrywise min,
    then a full {!close}).  Returns [false] when empty. *)

val includes : dim:int -> t -> t -> bool
(** [includes ~dim big small]: does [big] contain [small]?  Entrywise
    comparison — exact on closed DBMs. *)

val clock_lo : dim:int -> t -> int -> int
(** Smallest {e integer} value clock [i] takes in the zone (0 when the
    zone only constrains it from above). *)

val clock_hi : dim:int -> t -> int -> int option
(** Largest integer value of clock [i], or [None] when unbounded. *)

val extrapolate_lu : dim:int -> t -> l:int array -> u:int array -> unit
(** Extra_LU extrapolation (Behrmann–Bouyer–Larsen–Pelánek): abstract
    the closed DBM using per-clock lower/upper guard bounds [l.(i)] /
    [u.(i)] (indexed by DBM clock index; [-1] means the model never
    compares the clock that way).  Sound for location reachability of
    diagonal-free automata only.  Re-closes internally; the result is
    closed and non-empty whenever the input was. *)

val equal : t -> t -> bool
val hash : t -> int

val pp : dim:int -> names:string array -> Format.formatter -> t -> unit
(** Render the non-trivial constraints ([names.(i)] labels clock [i];
    [names.(0)] is ignored). *)
