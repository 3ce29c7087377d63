(** Parallel explicit-state exploration (OCaml 5 domains).

    Work-stealing over a sharded, lock-striped state table ({!Store}):
    every domain owns a chunked deque of work items; owners push and pop
    whole chunks in discovery order, idle domains steal the oldest half
    of a victim's chunks (the BFS-shallowest, hence largest, remaining
    subtrees).  Termination is detected with a global pending-chunk
    counter.  Items carry BFS depth stamps that are {e relaxed} —
    re-enqueued with the shorter depth — whenever a shorter path to a
    known state is found, which keeps truncation under [max_states]
    exact: a state is only skipped when its stamped depth exceeds the
    smallest depth whose cumulative state count reaches the bound, so
    every state the sequential engine would retain is interned and
    expanded.

    A final sequential replay over the collected integer adjacency
    renumbers states into canonical sequential BFS discovery order
    (skipped as an identity when the run made no steal and no
    relaxation), so results are {e deterministic and byte-identical} to
    the sequential engine:

    - {!space} produces exactly the {!Explore.space} result — same state
      numbering, same transition order, same [states] array, same
      [complete] flag, and the same truncation contract under
      [max_states] — for every domain count;
    - {!find} agrees with {!Explore.find} on the verdict constructor, on
      the witness trace length (shortest), and on {!Explore.Bound_hit}
      truncation behaviour;
    - {!count} agrees with {!Explore.count}.

    Compressed stores ({!Store.Hash_compaction}, {!Store.Bitstate})
    make the results {e probabilistic}: distinct states that collide are
    conflated, which can only under-report states (and hence miss
    violations), never over-report.  Byte-identical parity holds for
    hash compaction up to fingerprint collisions (~2^-62 per pair at the
    default width).  Bitstate keeps no state identities: it is rejected
    by {!space}, {!find} witnesses lose the shortest-trace guarantee,
    and a [false] completeness flag is reported whenever the bound was
    engaged.

    [domains] defaults to [Domain.recommended_domain_count ()]; [1] runs
    the whole pipeline on the calling domain.  The state table has 64
    lock stripes. *)

type stats = {
  states : int;  (** canonical (retained) states *)
  transitions : int;
  wall_seconds : float;
  states_per_sec : float;
  peak_frontier : int;  (** largest BFS level *)
  depth_histogram : int array;  (** states discovered per BFS level *)
  shard_occupancy : int array;  (** interned states per table stripe *)
  domains_used : int;
  steals : int;  (** successful steal operations *)
  relaxations : int;
      (** depth-stamp improvements that re-enqueued a known state *)
  coverage : Store.coverage;  (** store mode and omission estimate *)
  exhausted : Budget.reason option;
      (** why the run fell short of a full verdict, if it did *)
  degraded : string list;
      (** store modes entered by in-place degradation, in order *)
  retries : int;  (** poisoned items quarantined and retried *)
}

val pp_stats : Format.formatter -> stats -> unit

val space :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?progress:(depth:int -> states:int -> frontier:int -> unit) ->
  ?store:Store.mode ->
  ('s, 'l) System.t ->
  ('s, 'l) Explore.space
(** [space sys] builds the reachable state graph in parallel.  With the
    default exact store the result is byte-identical to
    [Explore.space ?max_states sys] regardless of [domains].  [progress]
    is invoked once per BFS level, after exploration, with the depth,
    cumulative state count and level size of the canonical space.

    [expected_states] (typically the lint pass's static state bound)
    pre-sizes the lock-striped state table: the hint is clamped to
    2{^22} states and split evenly across the stripes.  Results
    are unaffected.

    @raise Invalid_argument on a {!Store.Bitstate} store, which cannot
    produce a state graph. *)

val space_stats :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?progress:(depth:int -> states:int -> frontier:int -> unit) ->
  ?store:Store.mode ->
  ('s, 'l) System.t ->
  ('s, 'l) Explore.space * stats
(** Like {!space}, additionally returning exploration statistics. *)

val space_run :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?progress:(depth:int -> states:int -> frontier:int -> unit) ->
  ?store:Store.mode ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  ?resume:('s, 'l) Explore.cursor ->
  ('s, 'l) System.t ->
  ('s, 'l) Explore.run_result * stats
(** The resilient form of {!space_stats}.
    A {!Budget} trip — or an unrecoverable successor crash — suspends
    the run into an {!Explore.cursor} holding every interned state, the
    recorded adjacency and the unexpanded frontier; [resume] continues
    from such a cursor.  A resumed run always replays, so its [Done]
    space carries canonical numbering, making par->par round trips
    verdict- and graph-identical to an uninterrupted run ({e set}-wise;
    cursors taken by the {e sequential} engine resumed here, or vice
    versa, preserve verdicts but not byte-identity — only seq->seq round
    trips are byte-identical, see {!Explore.space_run}).

    With [degrade = true] (default) a {!Budget.Memory} trip first walks
    the store down the compression ladder in place
    ([Exact -> Hash_compaction -> Bitstate]) and re-arms the budget; the
    run only suspends once the ladder is exhausted.  Rungs taken are
    reported in [stats.degraded].  Note a store degraded to bitstate no
    longer tracks state identities, so the space degenerates (missing
    destinations are dropped and [complete] is [false]) — prefer
    {!count} or {!find} when heavy degradation is expected. *)

val count :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?store:Store.mode ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  ('s, 'l) System.t ->
  int * bool
(** Parallel {!Explore.count}: reachable-state count plus completeness
    flag, without retaining the graph.  Compressed stores under-count on
    collision; bitstate is supported and is the intended high-volume
    counting mode.  A [budget] trip reports the count so far with
    [complete = false]; [degrade] (default [true]) lets memory trips walk
    the store down the compression ladder instead of stopping. *)

val count_stats :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?store:Store.mode ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  ('s, 'l) System.t ->
  (int * bool) * stats
(** {!count}, additionally returning
    exploration statistics (including the store's {!Store.coverage}
    estimate — the way to surface bitstate omission probabilities).
    [stats.transitions] counts successor edges of first-time expansions,
    and the depth histogram uses stamped depths, which both coincide
    with the canonical values on unbounded runs.  [stats.exhausted],
    [stats.degraded] and [stats.retries] report budget trips, in-place
    store degradations and quarantine retries of this run. *)

val find :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?store:Store.mode ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  goal:('s -> bool) ->
  ('s, 'l) System.t ->
  ('s, 'l) Explore.verdict
(** Parallel {!Explore.find}: domains race over the frontier and the
    winner is canonicalised to a minimal-depth witness, so [Reached]
    traces have exactly the sequential (shortest) length and replay to a
    goal state; [Unreachable] and [Bound_hit] verdicts coincide with the
    sequential engine's.  Under a {!Store.Bitstate} store an
    [Unreachable] verdict is probabilistic — colliding states are never
    expanded, so a violation can be missed (never invented); see
    {!Store.coverage} for the omission estimate.

    A [budget] trip yields {!Explore.Exhausted} — unless a goal state
    was flagged before the trip, which always wins as [Reached].  A
    successor function that raises does {e not} take the run down: the
    poisoned item is quarantined and retried once on another domain
    after a backoff, and only a second failure converts the run into
    [Exhausted (Crashed _)] naming the offending state (after the rest
    of the space was explored). *)
