(** Operational semantics of parallel specifications.

    Builds, from a {!Spec.t}, a {!Mc.System.t} whose states are vectors of
    sequential-component configurations and whose labels are either the
    global clock step {!Tick} or a (possibly hidden) action occurrence.
    This is the role the mCRL2 linearisation + state-space generation
    pipeline plays in the paper. *)

type component
(** A sequential component configuration: a control point of the
    lowered spec plus the values of its environment slots. *)

type state = component array

type label =
  | Tick  (** global clock step: every component ticks together *)
  | Act of string * Value.t list
      (** action occurrence; hidden actions appear as [Act ("tau", [])] *)

val tau : label

val label_name : label -> string
(** ["tick"] for {!Tick}, the action name otherwise. *)

val pp_label : Format.formatter -> label -> unit

exception Unguarded_recursion of string
(** Raised during exploration if unfolding a definition never reaches an
    action prefix (the specification is not guarded). *)

val system : Spec.t -> (state, label) Mc.System.t
(** Compile a (validated) specification into an explorable system.
    @raise Invalid_argument if {!Spec.validate} rejects the spec. *)

(** {2 Compiled specifications}

    [compile] lowers a spec once to a table of control points: every
    (normalised term, environment layout) pair a component can be in,
    each owning its summand tree with variables as slot indices,
    action names as ints and calls resolved to definitions.  The step
    relation of {!system} runs on that table.  Alternative successor
    functions (the ample-set reducer in [lib/por]) build on the same
    table: they read each component's current action offers by id and
    its communication partners, and take their transitions from the
    exact successor construction ({!successors_from}, possibly
    restricted to some components) — guaranteeing the reduced system
    explores a sub-structure of the full one. *)

type compiled
(** A validated specification lowered to its control-point table,
    with its action tables (allow/hide sets, communication pairs) and
    initial state. *)

val compile : Spec.t -> compiled
(** @raise Invalid_argument if {!Spec.validate} rejects the spec. *)

val initial_of : compiled -> state

(** {3 Actions}

    Every action name of the spec (prefixes, communication halves and
    results, allow and hide lists) has an id in
    [0 .. num_actions c - 1]; {!tick} is [tick]'s.  Labels carry the
    names. *)

val tick : int
val num_actions : compiled -> int

val comm_partner_ids : compiled -> int -> (int * int) array
(** [(partner, result)] ids for a communication half, most recently
    declared pair first; [[||]] for other actions. *)

(** {3 Control points} *)

val num_control_points : compiled -> int

val control_point : component -> int
(** The control point a configuration is at. *)

val control_offers : compiled -> int -> int list
(** Action ids of the prefixes in a control point's own summand tree
    (whatever their guards), in syntactic order. *)

val control_successors : compiled -> int -> int list
(** The control points a control point's summands continue at, and
    those of the definitions its unguarded calls enter.  Closing
    {!control_offers} over this relation gives every action a
    configuration could ever offer again. *)

(** {3 Steps} *)

type step = { act : int; args : Value.t list; next : component }

val component_steps : compiled -> component -> step list
(** Local steps of one sequential component: every (action,
    evaluated arguments, next configuration) it currently offers,
    in deterministic (syntactic) order.  Includes tick offers, blocked
    actions and unpaired communication halves — pairing, visibility and
    the global-tick rule are applied by {!successors_from}. *)

val successors_from :
  ?within:bool array -> compiled -> step list array -> state -> (label * state) list
(** Full successor list of a state given the pre-computed local step
    menus of its components ([locals.(i)] must be
    [component_steps c s.(i)]).  This is the step relation of {!system}:
    independent actions in component order, then communications for
    [i < j], then the global tick.  With [within], only the steps of
    the marked components and the communications among them, and no
    tick. *)

val successors_of : compiled -> state -> (label * state) list

val system_of : compiled -> (state, label) Mc.System.t
(** The system of {!compile}d spec; [system spec] is
    [system_of (compile spec)]. *)

val pp_state : compiled -> Format.formatter -> state -> unit
(** One line per component: the term of its control point. *)

val equal_state : state -> state -> bool
val hash_state : state -> int

val lts : ?max_states:int -> ?domains:int -> Spec.t -> label Lts.Graph.t
(** Convenience: the reachable labelled transition system of the spec.
    [domains] (default 1) selects the sequential ({!Mc.Explore}) or
    parallel ({!Mc.Pexplore}) engine; the graph is identical either way.
    @raise Failure if [max_states] is exceeded. *)
