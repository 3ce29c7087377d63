(** Explicit-state exploration.

    Breadth-first exploration of a {!System.S} with hashed duplicate
    detection, producing either the full state space as an
    {!Lts.Graph.t}, a shortest witness trace to a goal state, or summary
    statistics.  Duplicate detection is one flat open-addressing index
    over state ids: each generated state is hashed exactly once, and the
    index doubles as it fills, so there is nothing to pre-size.  All
    entry points take an optional [max_states] bound; when the bound is
    hit the result is marked incomplete rather than failing.

    Entry points additionally accept a {!Budget.t}: the loop polls it
    once per expanded state and, on a trip, stops cooperatively — {!find}
    and {!count} report partial results, while {!space_run} suspends into
    a {!cursor} from which the run can later be resumed {e byte-identically}
    (same states array, same transition order, same graph) to an
    uninterrupted run. *)

type ('s, 'l) space = {
  lts : 'l Lts.Graph.t;  (** the explored state graph *)
  states : 's array;  (** state of each LTS node *)
  complete : bool;  (** [false] iff exploration hit [max_states] *)
}

val default_max : int
(** The default [max_states] bound (one million). *)

type exhaustion = {
  reason : Budget.reason;  (** which limit tripped *)
  states_so_far : int;  (** states interned before stopping *)
  coverage : Store.coverage;
      (** store omission estimate over the {e visited} states — the
          trivially-exact record for sequential/exact runs *)
}

val pp_exhaustion : Format.formatter -> exhaustion -> unit

type ('s, 'l) cursor = {
  c_max_states : int;  (** the bound the run was started with *)
  c_states : 's array;  (** interned states in discovery order *)
  c_depths : int array;  (** BFS depth stamp per state *)
  c_trans : (int * 'l * int) list;  (** transitions so far, newest first *)
  c_queue : int array;  (** unexpanded state ids, front first *)
  c_complete : bool;
}
(** A suspended exploration: everything needed to continue exactly where
    a budget trip or signal stopped the run.  The fields are exposed for
    the parallel engine and the checkpoint layer; treat the type as
    opaque otherwise.  Cursors are plain data (no closures) and safe to
    [Marshal] whenever the state and label types are. *)

val cursor_states : ('s, 'l) cursor -> int
val cursor_frontier : ('s, 'l) cursor -> int

type ('s, 'l) run_result =
  | Done of ('s, 'l) space
  | Suspended of Budget.reason * ('s, 'l) cursor

val space_run :
  ?max_states:int ->
  ?budget:Budget.t ->
  ?checkpoint:(int * (('s, 'l) cursor -> unit)) ->
  ?resume:('s, 'l) cursor ->
  ('s, 'l) System.t ->
  ('s, 'l) run_result
(** The resilient form of {!space}.  [checkpoint = (every, f)] calls
    [f] with a consistent snapshot after every [every] expanded states
    (use it to write periodic checkpoint files).  [resume] continues a
    suspended run; resuming with a different [max_states] than the
    cursor was taken with raises [Invalid_argument].

    {b Resume determinism.}  For a cursor produced by {e this} engine,
    [Done sp] after any number of suspend/resume round-trips is
    byte-identical to the uninterrupted result.  Cursors produced by
    the parallel engine ({!Pexplore}) use parallel discovery order, so
    resuming them here yields the same state {e set} and verdicts but
    not necessarily the same numbering. *)

val space : ?max_states:int -> ('s, 'l) System.t -> ('s, 'l) space
(** [space sys] builds the reachable state graph of [sys] breadth-first.
    [max_states] defaults to {!default_max}.

    {b Truncation contract.}  State [0] is the initial state and states are
    numbered in BFS discovery order (for each explored state in index
    order, successors are interned in the order {!System.S.successors}
    lists them).  When the reachable space exceeds [max_states], the result
    is the {e induced subgraph} on the first [max_states] states in that
    discovery order: every such state is still expanded, a transition is
    kept if and only if both its endpoints are among the retained states,
    and [complete] is [false] exactly when at least one successor fell
    outside the retained set.  In particular a bound equal to the exact
    number of reachable states yields [complete = true], and for a fixed
    successor function the truncated result is fully deterministic:
    [states] is a prefix of the unbounded [states] array and the transition
    list is the order-preserving restriction of the unbounded one. *)

type ('s, 'l) witness = {
  trace : 'l list;  (** labels of a shortest path from the initial state *)
  state : 's;  (** the reached goal state *)
}

type ('s, 'l) verdict =
  | Unreachable  (** exhaustive search found no goal state *)
  | Reached of ('s, 'l) witness
  | Bound_hit of int  (** no goal within the first [n] states explored *)
  | Exhausted of exhaustion
      (** the budget tripped (or a successor crashed, in the parallel
          engine) before the search concluded; no goal was found among
          the states visited so far *)

val find :
  ?max_states:int ->
  ?budget:Budget.t ->
  goal:('s -> bool) ->
  ('s, 'l) System.t ->
  ('s, 'l) verdict
(** [find ~goal sys] searches breadth-first for a state satisfying [goal],
    returning a shortest witness trace when one exists.  A goal state
    found before the budget trips is always reported as {!Reached} —
    {!Exhausted} means the search was cut short while still empty. *)

val count :
  ?max_states:int ->
  ?budget:Budget.t ->
  ('s, 'l) System.t ->
  int * bool
(** [count sys] is the number of reachable states paired with a completeness
    flag; cheaper than {!space} as no graph is retained.  A budget trip
    reports the states counted so far with [complete = false]. *)
