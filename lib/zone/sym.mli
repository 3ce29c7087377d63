(** Symbolic (dense-time) semantics of timed-automata networks over
    DBM zones.

    A symbolic state pairs the {e discrete part} of a configuration —
    the location vector and variable values, laid out exactly like
    {!Ta.Semantics}'s cell array with every clock cell zeroed — with a
    canonical DBM over the network's clocks.  Reusing the discrete
    layout means state predicates written against
    {!Ta.Semantics.config} observations ([loc_is], [var], [elem])
    apply unchanged to symbolic states via {!Ta.Semantics.of_cells}.

    Successor states follow the standard zone-graph construction: for
    each macro transition (internal edge, binary handshake, broadcast)
    whose data guard holds, conjoin the clock guard atoms, apply the
    resets and variable updates in order, conjoin the target
    invariants, delay ([up], unless a target location is urgent or
    committed), re-conjoin the invariants, zero the Daws–Yovine
    inactive clocks, and apply Extra_LU extrapolation with static
    per-clock bounds derived from the model by interval analysis.
    Each zone is closed and non-empty by construction, so a state is a
    canonical representative of its region set and states compare by
    plain structural equality (or, better, by zone inclusion — see
    {!Reach}).

    Supported constraint language: conjunctions of clock-free boolean
    expressions and atomic comparisons [c ~ e] between one clock and a
    clock-free integer expression ([~] any of [< <= == >= >]).
    Diagonal constraints ([c - d ~ e]), clocks under disjunction or
    [!=], and clocks inside arithmetic raise {!Unsupported} — Extra_LU
    is only sound for diagonal-free automata, and the rest would need
    zone splitting.  Clock {e reads} in update right-hand sides are
    supported exactly by finite case-split on the integer value read
    (saturated at the clock's declared cap, mirroring the discrete
    semantics' saturation).  Receivers on broadcast channels must have
    data-only guards (the UPPAAL restriction): participation is then a
    function of the discrete part alone. *)

exception Unsupported of string
(** Raised by {!compile} on constraints outside the supported
    fragment; the message names the offending automaton/edge. *)

type t
(** A compiled symbolic network. *)

type state = { disc : int array; dbm : Dbm.t }
(** [disc] is a {!Ta.Semantics} cell array with clock cells zeroed;
    [dbm] is closed, non-empty and extrapolated.  Treat both as
    immutable. *)

type lu = Global | Location
(** Extrapolation mode.  [Global]: one static L/U pair per clock (the
    maxima over the whole model).  [Location]: per-state bounds from
    {!Lubounds}' backward fixpoint, composed as the maximum over the
    current location vector, with Daws–Yovine inactive clocks dropped
    to [L = U = -1].  Verdict-preserving either way (both are sound
    Extra+LU abstractions of the same zone graph); [Location] never
    stores more zones and typically far fewer. *)

val compile : ?lu:lu -> Ta.Model.t -> t
(** Compile a network for zone exploration.  [lu] defaults to
    [Global].
    @raise Unsupported on constraints outside the zone fragment, and on
    clock constants or caps beyond {!Dbm.max_const}.
    @raise Invalid_argument on the errors {!Ta.Semantics.compile}
    rejects (unknown names, initial invariant violation). *)

val net : t -> Ta.Semantics.t
(** The underlying discrete compilation (same layout). *)

val dim : t -> int
(** DBM dimension: number of clocks + 1. *)

val initial : t -> state

val successors : t -> state -> (Ta.Semantics.label * state) list
(** Labels are always [Act _] (time is inside the zones); the label
    strings coincide with the discrete semantics' labels, so a
    symbolic trace is a candidate discrete trace modulo delays. *)

val system : t -> (state, Ta.Semantics.label) Mc.System.t
(** Package for the generic explorers ({!Mc.Explore},
    {!Mc.Pexplore}). *)

val bad_of : t -> (Ta.Semantics.config -> bool) -> state -> bool
(** Lift a discrete state predicate (built from clock-free
    observations) to symbolic states. *)

val lu_bounds : t -> (string * int * int) list
(** Per clock: name, largest lower-bound constant L, largest
    upper-bound constant U — the global maxima, i.e. what [Global]
    mode extrapolates with ([-1] = the model never compares the clock
    that way).  For the per-location tables see {!lu_tables}. *)

val lu_mode : t -> lu
(** The extrapolation mode this network was compiled with. *)

val lu_tables : t -> (string * (string * (string * int * int) list) list) list
(** The per-location bound tables behind [Location] mode, computed in
    both modes: every automaton (model order) with every location
    (model order) and every clock (declaration order) as
    [(clock, L, U)].  Each entry never exceeds the {!lu_bounds}
    global pair for its clock. *)

val subsumes : t -> state -> state -> bool
(** [subsumes t big small]: same discrete part and [big]'s zone
    includes [small]'s. *)

val pp_state : t -> Format.formatter -> state -> unit

(** {2 Lint support} *)

val diagnostics : Ta.Model.t -> Lint_report.diag list
(** The TA-ZONE lint section: errors for constraints outside the zone
    fragment (diagonal constraints, clocks under disjunction,
    non-integer clock comparisons, clock-guarded broadcast receivers,
    clock constants beyond {!Dbm.max_const})
    and info lines reporting the static LU bounds and update
    clock-read case splits.  A model with no TA-ZONE errors compiles
    with {!compile}. *)
