(** Static dependence analysis and ample-set partial-order reduction.

    The paper's specifications are parallel compositions whose
    components mostly act independently; interleaving all their
    invisible local moves is what makes the full state space large.
    This module (1) statically computes, per component of a
    {!Proc.Spec.t}, which action names it can ever offer and who its
    communication partners are, and (2) uses that dependence
    information to build a {e reduced} {!Mc.System.t} that explores
    only an ample subset of each state's transitions, sound for
    deadlocks, safety monitors over a given alphabet, and
    stutter-invariant LTL over that alphabet (see DESIGN.md for the
    soundness argument and the cycle proviso).

    The reduced system is stateful (it memoizes expansions to
    implement the cycle proviso).  By default ([par = false]) it must
    be explored {e sequentially} — {!Mc.Explore}, {!Mc.Safety} with
    [domains = 1], or the {!Ltl.Check} engines.  With [~par:true] the
    proviso's seen-set and memo become lock-striped and the discovery
    stamps are minted inside the stripe locks, which makes the reduced
    system safe to feed to {!Mc.Pexplore} with any domain count: a
    state whose stamp is still unknown to a reader is guaranteed to be
    stamped strictly later, so the sequential back-edge argument
    (the minimal-stamp state on an all-reduced cycle must have been
    visible to its predecessor's expansion) holds under any
    interleaving, and back edges judged against stamps minted by
    another domain conservatively force full expansion (counted in
    [cross_domain_blocked]).  Racing expansions are resolved
    winner-takes-all in the memo, so within one run the reduced
    relation is still a function of the state; across runs the winner
    — and hence the reduced graph and its statistics — may differ with
    scheduling.  Parallel reduced runs therefore guarantee {e verdict}
    parity with the full system, not byte-identical state spaces. *)

type analysis
(** Result of the static pass over one specification. *)

val analyze : Proc.Spec.t -> analysis
(** Validate the spec and compute per-component statically-reachable
    action alphabets (via the call graph, as in [Lint.Pa]), the
    offerer table (for each action name, which components can ever
    offer it) and the zeno-freedom proof.  The spec is lowered
    ({!Proc.Semantics.compile}) only when {!compiled} or a reduced
    system first needs it, once per analysis.
    @raise Invalid_argument if {!Proc.Spec.validate} rejects the spec. *)

val analyze_cached : Proc.Spec.t -> analysis
(** Like {!analyze}, memoised on the spec term (structural equality):
    table sweeps and smoke matrices that revisit the same spec share
    one analysis.  Safe because the analysis is a pure function of the
    spec. *)

val cache_stats : unit -> int * int
(** [(lookups, hits)] of the {!analyze_cached} memo since start-up. *)

val compiled : analysis -> Proc.Semantics.compiled
(** The lowered spec, built on first call and shared by every reduced
    system of this analysis; explore the full system from it to lower
    a spec only once per query. *)

val component_names : analysis -> string array

val component_alphabet : analysis -> int -> string list
(** Sorted action names component [i] can ever offer (including [tick]
    and communication halves). *)

val offerers : analysis -> string -> int list
(** Ascending indices of the components that can ever offer the given
    action name; [[]] for unknown names and pure result names. *)

val zeno_free : analysis -> bool
(** Statically proven: every cycle of the full system performs a tick.
    Since ample sets never contain the tick, a zeno-free spec needs no
    runtime cycle proviso — reduction is then both cheaper and more
    effective.  Conservative: [false] only means the runtime proviso
    stays on. *)

val zeno_suspects : analysis -> int list
(** The component indices the zeno pruning could not discharge —
    the potential movers of a tick-free cycle.  [[]] iff {!zeno_free}. *)

type stats = {
  mutable states : int;  (** states whose successors were computed *)
  mutable ample_states : int;
      (** of those, states where an ample subset was returned *)
  mutable no_refuser : int;
      (** fully expanded: every candidate group had all members offering
          [tick] (typically a stable state where only time can pass) *)
  mutable proviso_blocked : int;
      (** fully expanded: every otherwise-valid candidate had a
          potential cycle-closing back edge *)
  mutable visible_blocked : int;
      (** fully expanded: every tick-refusing candidate offered a
          visible label (or nothing at all) *)
  mutable cross_domain_blocked : int;
      (** of the [proviso_blocked] expansions, those where a blocking
          back edge's discovery stamp was minted by another domain —
          the parallel proviso's conservative cross-domain fallback.
          Always [0] sequentially. *)
}

val reduced_system_stats :
  ?alphabet:string list ->
  ?par:bool ->
  analysis ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t * stats
(** A reduced system together with its live counters.  [alphabet] is
    the property alphabet: the label names the property being checked
    can observe (a safety monitor's predicate names, or the [Lbl]
    atoms of a stutter-invariant LTL formula).  Every transition label
    whose name is in [alphabet] is treated as visible and never
    reduced past.  The default [[]] (pure reachability / state
    counting) reduces the most.

    [par] (default [false]) selects the lock-striped parallel proviso
    described in the module header; sequential exploration of a
    [~par:true] system is also sound (and deterministic on a single
    domain), it merely pays the locking overhead.  In parallel mode
    [states] counts expansion computations, which can slightly exceed
    the number of distinct reduced states when domains race on the
    same state. *)

val reduced_system :
  ?alphabet:string list ->
  ?par:bool ->
  analysis ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t

val reduction :
  ?par:bool ->
  analysis ->
  alphabet:string list ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t option
(** Adapter with the shape {!Ltl.Check.check}'s [?reduction] callback
    expects: builds a fresh reduced system for the formula's alphabet. *)

val diagnostics : analysis -> Lint_report.diag list
(** The dependence analysis as [hblint] report entries (code [PA-POR],
    severity Info): a summary of ample opportunities, one entry per
    communication pair naming the dependent component groups, and one
    entry per local action naming its offerers.  Deterministic. *)
