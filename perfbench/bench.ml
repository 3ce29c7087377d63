(* Running a workload: seeded passes over its queries, one row per
   query, and the metrics computed from the rows and the trace. *)

type row = {
  workload : string;
  pass : int;
  traced : bool;
  query : string;
  engine : string;
  phase : string;
  domains : int;
  verdict : string;
  seconds : float;
  kernel_s : float;
      (** the host kernel's time around the query: the mean of the
          samples last taken before it and right after it *)
  states : int option;
  peak_kb : int;  (** VmHWM over the timed query, checks excluded *)
  failure : string option;
}

let seconds_between t0 t1 = float (t1 - t0) *. 1e-9

(* --- process memory ---------------------------------------------------- *)

(* VmHWM from /proc/self/status, in kB (0 where unavailable). *)
let peak_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0

(* Restart VmHWM at the current resident size (Linux: 5 written to
   /proc/self/clear_refs); where that is unavailable the mark keeps
   running from process start. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* Time one query, then run its pinned check outside the timed region.
   An exception, Unknown or Exhausted verdict, wrong verdict or failed
   check marks the row failed; nothing propagates.  A full major
   collection after the check hands the next query a heap holding no
   garbage of this one, so a query's time does not depend on the order
   the seed drew, and the peak memory is taken over the timed call
   alone, so the checks' own allocations do not count. *)
let run_query ~workload ~pass tr (q : Workloads.query) =
  Option.iter (fun t -> t.Trace.query <- q.Workloads.id) tr;
  reset_peak_rss ();
  let k0 = Host.latest_s () in
  let t0 = Trace.now_ns () in
  let result =
    try Ok (Trace.span tr "query" (fun () -> q.Workloads.run tr))
    with e -> Error (Printexc.to_string e)
  in
  let seconds = seconds_between t0 (Trace.now_ns ()) in
  let peak_kb = peak_rss_kb () in
  let verdict, states, failure =
    match result with
    | Error e -> ("error", None, Some ("raised " ^ e))
    | Ok o ->
        let failure =
          try o.Workloads.check ()
          with e -> Some ("check raised " ^ Printexc.to_string e)
        in
        (o.Workloads.verdict, o.Workloads.states, failure)
  in
  Gc.full_major ();
  Host.sample ();
  {
    workload;
    pass;
    traced = Option.is_some tr;
    query = q.Workloads.id;
    engine = q.Workloads.engine;
    phase = q.Workloads.phase;
    domains = q.Workloads.domains;
    verdict;
    seconds;
    kernel_s = (k0 +. Host.latest_s ()) /. 2.;
    states;
    peak_kb;
    failure;
  }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* One pass: every query once, in an order drawn from [rng]. *)
let run_pass ~workload ~pass ~rng ?tr ~emit queries =
  List.map
    (fun q ->
      let r = run_query ~workload ~pass tr q in
      emit r;
      r)
    (shuffle rng queries)

(* Query time summed over a pass: first query issued to last verdict,
   less the pinned checks run between queries. *)
let pass_wall rows = Stats.sum (List.map (fun r -> r.seconds) rows)

(* A row's time in seconds of a host running the calibration kernel
   at its reference speed (see {!Host}). *)
let scaled r = r.seconds *. Host.reference_s /. r.kernel_s

(* Each query's median of [value] over the passes, with its phase.
   The host alternates between a fast and a slow state, so a query's
   fastest time swings with whether any pass caught a fast moment; its
   median follows the state most passes ran in. *)
let typical value rows =
  let h = Hashtbl.create 256 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt h r.query with
      | Some (ph, vs) -> Hashtbl.replace h r.query (ph, value r :: vs)
      | None -> Hashtbl.add h r.query (r.phase, [ value r ]))
    rows;
  Hashtbl.fold (fun _ (ph, vs) acc -> (ph, Stats.median vs) :: acc) h []

(* Per phase, the summed typical time of its queries. *)
let phase_sums typical =
  List.map
    (fun ph ->
      ( ph ^ "_s",
        Stats.sum (List.filter_map (fun (p, t) -> if p = ph then Some t else None) typical) ))
    (List.sort_uniq compare (List.map fst typical))

let row_json r =
  Json.obj
    [
      ("workload", Json.str r.workload);
      ("pass", Json.int r.pass);
      ("traced", Json.bool r.traced);
      ("query", Json.str r.query);
      ("engine", Json.str r.engine);
      ("domains", Json.int r.domains);
      ("verdict", Json.str r.verdict);
      ("seconds", Json.num r.seconds);
      ("kernel_ms", Json.num (1000. *. r.kernel_s));
      ("states", Json.opt Json.int r.states);
      ("peak_mb", Json.num (float r.peak_kb /. 1024.));
      ("failure", Json.opt Json.str r.failure);
    ]

(* The row with its timing removed: what must repeat for a seed. *)
let row_untimed r = { r with seconds = 0.; kernel_s = 0.; peak_kb = 0 }

(* --- per-layer metrics ------------------------------------------------ *)

let all_engines = Trace.[ Other; Explore; Pexplore; Resume; Ltl; Zone ]
let semantics = Trace.[ Ta; Proc; Por ]

let select (field : int array) ~engines ~sems ~ops =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc s ->
          List.fold_left (fun acc o -> acc + field.(Trace.slot e s o)) acc ops)
        acc sems)
    0 engines

let div a b = if b = 0. then 0. else a /. b

(* Everything the traced passes measured besides the spans. *)
type runtime = {
  overhead_frac : float;
  minor_words : float;
  major_collections : int;
  top_heap_mb : float;
  cache_lookups : int;
  cache_hits : int;
  domains : int;  (** domains of the parallel queries *)
  passes : int;  (** traced passes the totals were summed over *)
}

(* Times, counts and sizes are reported per traced pass, like
   [wall_s]; ratios and per-call costs need no scaling. *)
let per_pass rt (name, unit_, v) =
  ( name,
    unit_,
    if List.mem unit_ [ "s"; "count"; "words"; "bytes" ] then v /. float rt.passes
    else v )

let layer_metrics (tr : Trace.t) (t : Trace.acc) (rt : runtime) :
    (string * string * float) list =
  let spans = Trace.by_name tr in
  let span_s name =
    match Hashtbl.find_opt spans name with
    | Some (_, total, _) -> float total *. 1e-9
    | None -> 0.
  in
  let self_s name =
    match Hashtbl.find_opt spans name with
    | Some (_, _, self) -> float self *. 1e-9
    | None -> 0.
  in
  let counter name =
    float (Option.value (Hashtbl.find_opt tr.Trace.counters name) ~default:0)
  in
  let calls ~engines ~sems ~ops = float (select t.Trace.calls ~engines ~sems ~ops) in
  let secs ~engines ~sems ~ops = float (select t.Trace.ns ~engines ~sems ~ops) *. 1e-9 in
  let edges ~engines ~sems = float (select t.Trace.edges ~engines ~sems ~ops:[ Trace.Succ ]) in
  let sem_layer prefix sem =
    let n = calls ~engines:all_engines ~sems:[ sem ] ~ops:[ Trace.Succ ] in
    let s = secs ~engines:all_engines ~sems:[ sem ] ~ops:[ Trace.Succ ] in
    [
      (prefix ^ ".successors_calls", "count", n);
      (prefix ^ ".successors_s", "s", s);
      (prefix ^ ".successor_us", "us", 1e6 *. div s n);
      (prefix ^ ".edges", "count", edges ~engines:all_engines ~sems:[ sem ]);
    ]
  in
  let explore_states = calls ~engines:[ Trace.Explore ] ~sems:semantics ~ops:[ Trace.Succ ] in
  let explore_edges = edges ~engines:[ Trace.Explore ] ~sems:semantics in
  let store = Trace.[ Explore; Pexplore; Resume ] in
  let par_succ = secs ~engines:[ Trace.Pexplore ] ~sems:semantics ~ops:[ Trace.Succ ] in
  let por_calls = calls ~engines:all_engines ~sems:[ Trace.Por ] ~ops:[ Trace.Succ ] in
  let por_secs = secs ~engines:all_engines ~sems:[ Trace.Por ] ~ops:[ Trace.Succ ] in
  let zone_trans = counter "zone.transitions" in
  List.map (per_pass rt)
  @@ [ ("ta.compile_s", "s", span_s "ta.compile") ]
  @ sem_layer "ta" Trace.Ta
  @ [
      ("mc.explore.self_s", "s", self_s "mc.explore");
      ("mc.explore.states", "count", explore_states);
      ("mc.explore.transitions", "count", explore_edges);
      ("mc.explore.states_per_s", "1/s", div explore_states (span_s "mc.explore"));
      ("mc.store.hash_calls", "count", calls ~engines:store ~sems:semantics ~ops:[ Trace.Hash ]);
      ("mc.store.hash_s", "s", secs ~engines:store ~sems:semantics ~ops:[ Trace.Hash ]);
      ("mc.store.equal_calls", "count", calls ~engines:store ~sems:semantics ~ops:[ Trace.Equal ]);
      ("mc.store.equal_s", "s", secs ~engines:store ~sems:semantics ~ops:[ Trace.Equal ]);
      ("mc.store.new_frac", "frac", div explore_states explore_edges);
      ("mc.pexplore.successors_s", "s", par_succ);
      ( "mc.pexplore.busy_frac",
        "frac",
        div par_succ (float rt.domains *. span_s "mc.pexplore") );
      ("mc.checkpoint.save_s", "s", span_s "mc.checkpoint.save");
      ("mc.checkpoint.load_s", "s", span_s "mc.checkpoint.load");
      ("mc.checkpoint.bytes", "bytes", counter "mc.checkpoint.bytes");
      ("mc.explore.resume_s", "s", span_s "mc.explore.resume");
      ("ltl.check_s", "s", span_s "ltl.check");
      ("ltl.self_s", "s", self_s "ltl.check");
      ("ltl.successors_calls", "count", calls ~engines:[ Trace.Ltl ] ~sems:semantics ~ops:[ Trace.Succ ]);
      ("proc.compile_s", "s", span_s "proc.compile");
    ]
  @ sem_layer "proc" Trace.Proc
  @ [
      ("por.analyze_s", "s", span_s "por.analyze");
      ("por.successor_us", "us", 1e6 *. div por_secs por_calls);
      ("por.expanded", "count", counter "por.expanded");
      ("por.ample_frac", "frac", div (counter "por.ample") (counter "por.expanded"));
      ("por.proviso_blocked", "count", counter "por.proviso_blocked");
      ("por.visible_blocked", "count", counter "por.visible_blocked");
      ("por.no_refuser", "count", counter "por.no_refuser");
      ("zone.compile_s", "s", span_s "zone.compile");
      ("lubounds.analyze_s", "s", span_s "lubounds.analyze");
      ("zone.reach_s", "s", span_s "zone.reach");
      ("zone.states", "count", counter "zone.states");
      ("zone.transitions", "count", zone_trans);
      ("zone.subsumed", "count", counter "zone.subsumed");
      ("zone.subsumed_frac", "frac", div (counter "zone.subsumed") zone_trans);
      ("zone.transition_us", "us", 1e6 *. div (span_s "zone.reach") zone_trans);
      ("heartbeat.build_s", "s", span_s "heartbeat.build");
      ("heartbeat.bad_state_calls", "count", calls ~engines:all_engines ~sems:[ Trace.Pred ] ~ops:[ Trace.Succ ]);
      ("heartbeat.bad_state_s", "s", secs ~engines:all_engines ~sems:[ Trace.Pred ] ~ops:[ Trace.Succ ]);
      ( "heartbeat.cache_hit_frac",
        "frac",
        div (float rt.cache_hits) (float rt.cache_lookups) );
      ("lint.static_bound_s", "s", span_s "lint.static_bound");
      ("gc.minor_words", "words", rt.minor_words);
      ("gc.major_collections", "count", float rt.major_collections);
      ("gc.top_heap_mb", "MB", rt.top_heap_mb);
      ("trace.overhead_frac", "frac", rt.overhead_frac);
    ]

let metrics_json ms =
  Json.obj
    (List.map
       (fun (name, unit_, v) ->
         (name, Json.obj [ ("value", Json.num v); ("unit", Json.str unit_) ]))
       ms)
