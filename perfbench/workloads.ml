(* The benchmark's queries and workloads.

   A query is one (model, parameters, property, engine) check that
   returns a verdict.  Untraced, every query goes through the
   library's public entry point at its defaults (Verify.check,
   Verify.check_live, Pa_verify.check, Mc.Explore.space/space_run,
   Mc.Checkpoint, Zone.Sym/Zone.Reach).  Traced, the query recomposes
   the same calls the entry point makes, with the [Mc.System.t] it
   hands to the explorer wrapped by {!Trace} and a span around each
   layer.  Both paths return the same verdict, and both are checked
   against {!Pins} after the timed call. *)

module H = Heartbeat

type outcome = {
  verdict : string;
  states : int option;  (** when the entry point reports it *)
  check : unit -> string option;
      (** the pinned check, run outside the timed region: [Some why]
          on a mismatch *)
}

type query = {
  id : string;
  engine : string;
  phase : string;  (** the per-workload phase sum the query counts in *)
  domains : int;
      (** domains the query runs on.  A query on more than one is left
          out of the end-to-end times: on a shared host the domains
          wait on each other at every stop-the-world collection, so its
          time doubles whenever the host withholds one core. *)
  run : Trace.t option -> outcome;
}

type workload = {
  name : string;
  nominal_pass_s : float;
      (** one untraced pass on a 2-core x86-64 host; sets the number of
          passes that fill [--seconds] *)
  prepare : seed:int -> query list;
      (** builds, compiles and statically analyses every model once;
          the seed only picks the checkpoint suspend point *)
  warm_up : int;
      (** the first [warm_up] queries of the prepared list run once,
          untimed, before the timed passes *)
}

(* Verify's and Pa_verify's default state bounds, passed explicitly
   where the traced run recomposes their checks. *)
let verify_max = 5_000_000
let pa_max = 4_000_000
let expect why ok = if ok then None else Some why
let holds_name b = if b then "holds" else "violated"

let expected_of = function
  | Lint.Interval.Finite n -> Some n
  | Lint.Interval.Unbounded -> None

let safety_result what = function
  | Mc.Safety.Holds -> (true, None)
  | Mc.Safety.Violated trace -> (false, Some trace)
  | Mc.Safety.Unknown n -> Printf.ksprintf failwith "%s: state bound %d hit" what n
  | Mc.Safety.Exhausted _ -> failwith (what ^ ": exhausted")

let safety_outcome ?states ~expected ~replay (holds, cex) =
  {
    verdict = holds_name holds;
    states;
    check =
      (fun () ->
        if holds <> expected then Some ("expected " ^ holds_name expected)
        else
          match cex with
          | Some trace ->
              expect "counterexample does not replay on the discrete system"
                (replay trace)
          | None -> expect "violated without a counterexample" holds);
  }

let ta_model ~fixed variant params req =
  H.Ta_models.build ~fixed
    ~with_r1_monitors:(H.Requirements.needs_monitors req)
    variant params

let replay_ta ~fixed variant params req trace =
  let net = Ta.Semantics.compile (ta_model ~fixed variant params req) in
  Zone.Reach.guided_replay (Ta.Semantics.system net) ~trace
    ~goal:(H.Requirements.bad_state variant params net req)

(* Zone.Reach calls its successors internally, so the zone layer is
   timed as one span with the explorer's own counters. *)
let zone_find ?max_states tr z bad =
  let stats = Zone.Reach.new_stats () in
  let v =
    Trace.span tr ~engine:Trace.Zone "zone.reach" (fun () ->
        Zone.Reach.find ?max_states ~stats z ~goal:(Zone.Sym.bad_of z bad))
  in
  Trace.count tr "zone.states" stats.Zone.Reach.states;
  Trace.count tr "zone.transitions" stats.Zone.Reach.transitions;
  Trace.count tr "zone.subsumed" stats.Zone.Reach.subsumed;
  let states = stats.Zone.Reach.states in
  match v with
  | Mc.Explore.Unreachable -> (states, (true, None))
  | Mc.Explore.Reached w -> (states, (false, Some w.Mc.Explore.trace))
  | Mc.Explore.Bound_hit n -> Printf.ksprintf failwith "zone bound %d hit" n
  | Mc.Explore.Exhausted _ -> failwith "zone search exhausted"

(* --- timed-automata safety, discrete or zone ------------------------- *)

let ta_safety ?(domains = 1) ?(zone = false) ~phase ~expected ~fixed variant
    params req =
  let id =
    Printf.sprintf "%s/%s/%s/%d-%d/n%d/%s"
      (if zone then "zone"
       else if domains > 1 then Printf.sprintf "safety-%dd" domains
       else "safety")
      (H.Ta_models.variant_name variant)
      (if fixed then "fixed" else "orig")
      params.H.Params.tmin params.H.Params.tmax params.H.Params.n
      (H.Requirements.name req)
  in
  let replay = replay_ta ~fixed variant params req in
  let untraced () =
    let lu = if zone then Some Zone.Sym.Location else None in
    let o = H.Verify.check ~fixed ~domains ~zone ?lu variant params req in
    if o.H.Verify.exhausted <> None then failwith (id ^ ": exhausted");
    safety_outcome ?states:o.H.Verify.states_explored ~expected ~replay
      (o.H.Verify.holds, o.H.Verify.counterexample)
  in
  let traced tr =
    let model =
      Trace.span tr "heartbeat.build" (fun () ->
          ta_model ~fixed variant params req)
    in
    if zone then begin
      ignore
        (Trace.span tr "lubounds.analyze" (fun () ->
             Lubounds.analyze_cached model));
      let z =
        Trace.span tr "zone.compile" (fun () ->
            Zone.Sym.compile ~lu:Zone.Sym.Location model)
      in
      let bad =
        Trace.pred tr (H.Requirements.bad_state variant params (Zone.Sym.net z) req)
      in
      let states, result = zone_find ~max_states:verify_max tr z bad in
      safety_outcome
        ?states:(if fst result then Some states else None)
        ~expected ~replay result
    end
    else begin
      let net = Trace.span tr "ta.compile" (fun () -> Ta.Semantics.compile model) in
      let bad = Trace.pred tr (H.Requirements.bad_state variant params net req) in
      let expected_states =
        Trace.span tr "lint.static_bound" (fun () ->
            expected_of (Lint.Ta_model.static_bound_cached model))
      in
      let engine, name =
        if domains > 1 then (Trace.Pexplore, "mc.pexplore")
        else (Trace.Explore, "mc.explore")
      in
      let sys = Trace.system tr Trace.Ta (Ta.Semantics.system net) in
      safety_outcome ~expected ~replay
        (safety_result id
           (Trace.span tr ~engine name (fun () ->
                Mc.Safety.check_state ~max_states:verify_max ?expected_states
                  ~domains sys bad)))
    end
  in
  {
    id;
    engine =
      (if zone then "zone-lu"
       else if domains > 1 then Printf.sprintf "discrete-%dd" domains
       else "discrete");
    phase;
    domains;
    run = (function None -> untraced () | Some _ as tr -> traced tr);
  }

(* --- timed-automata liveness ----------------------------------------- *)

let ta_live ~fixed variant params req =
  let id =
    Printf.sprintf "live/%s/%s/%d-%d/%s"
      (H.Ta_models.variant_name variant)
      (if fixed then "fixed" else "orig")
      params.H.Params.tmin params.H.Params.tmax (H.Requirements.name req)
  in
  let expected = Pins.liveness ~fixed req in
  let run tr =
    let verdict =
      match tr with
      | None -> H.Verify.check_live ~fixed variant params req
      | Some _ ->
          let model =
            Trace.span tr "heartbeat.build" (fun () ->
                H.Ta_models.build ~fixed variant params)
          in
          let net =
            Trace.span tr "ta.compile" (fun () -> Ta.Semantics.compile model)
          in
          let sys = Trace.system tr Trace.Ta (Ta.Semantics.system net) in
          Trace.span tr ~engine:Trace.Ltl "ltl.check" (fun () ->
              Ltl.Check.check ~engine:Ltl.Check.Ndfs
                ~fairness:H.Requirements.live_fairness ~max_states:verify_max
                sys
                (H.Requirements.live_formula variant params req))
    in
    let holds =
      match verdict with
      | Ltl.Check.Holds -> true
      | Ltl.Check.Refuted _ -> false
      | Ltl.Check.Unknown n -> Printf.ksprintf failwith "%s: bound %d hit" id n
      | Ltl.Check.Exhausted _ -> failwith (id ^ ": exhausted")
    in
    {
      verdict = (if holds then "holds" else "refuted");
      states = None;
      check =
        (fun () ->
          expect ("expected " ^ if expected then "holds" else "refuted")
            (holds = expected));
    }
  in
  { id; engine = "ltl-ndfs"; phase = "liveness"; domains = 1; run }

(* --- process algebra, with and without partial-order reduction ------- *)

(* The safety monitors Pa_verify.check builds (they are not exported):
   watchdogs for R1, precedence observers for R2/R3, each with the
   alphabet the reduction must keep visible.  The pinned verdicts and
   the untraced run, which goes through Pa_verify itself, guard this
   copy. *)
let pa_monitors variant (p : H.Params.t) req =
  let ps =
    match (variant : H.Pa_models.variant) with
    | Static | Expanding | Dynamic -> List.init p.H.Params.n (fun k -> k + 1)
    | Binary | Revised | Two_phase -> [ 1 ]
  in
  let name_in names = function
    | Proc.Semantics.Tick -> false
    | Proc.Semantics.Act (name, _) -> List.mem name names
  in
  let is_tick l = l = Proc.Semantics.Tick in
  let joining = H.Pa_models.has_join variant in
  let loses = List.concat_map (H.Pa_models.act_lose variant) ps in
  match (req : H.Requirements.requirement) with
  | R1 ->
      List.map
        (fun i ->
          let reset_names =
            H.Pa_models.act_beat_delivered_to_p0 i
            :: (if joining then [ H.Pa_models.act_join_delivered_to_p0 i ] else [])
          in
          let ok_names =
            [ H.Pa_models.act_inactivate_nv_p0; H.Pa_models.act_crash_p0 ]
            @
            if variant = H.Pa_models.Dynamic then
              [ H.Pa_models.act_leave_delivered_to_p0 i ]
            else []
          in
          let reset = name_in reset_names and ok = name_in ok_names in
          let bound = 2 * p.H.Params.tmax in
          let m =
            if joining then
              Mc.Monitor.deadline_after ~arm:reset ~tick:is_tick ~reset ~ok bound
            else Mc.Monitor.deadline ~tick:is_tick ~reset ~ok bound
          in
          (m, (Proc.Spec.tick_name :: reset_names) @ ok_names))
        ps
  | R2 ->
      List.map
        (fun i ->
          let fault =
            loses
            @ [ H.Pa_models.act_crash_p0; H.Pa_models.act_inactivate_nv_p0 ]
            @ List.concat_map
                (fun j ->
                  if j = i then []
                  else
                    [ H.Pa_models.act_crash_pi j; H.Pa_models.act_inactivate_nv_pi j ])
                ps
          in
          let bad = [ H.Pa_models.act_inactivate_nv_pi i ] in
          (Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad), fault @ bad))
        ps
  | R3 ->
      let fault =
        loses
        @ List.concat_map
            (fun j -> [ H.Pa_models.act_crash_pi j; H.Pa_models.act_inactivate_nv_pi j ])
            ps
      in
      let bad = [ H.Pa_models.act_inactivate_nv_p0 ] in
      [ (Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad), fault @ bad) ]

let add_por_stats tr (st : Por.stats) =
  Trace.count tr "por.expanded" st.Por.states;
  Trace.count tr "por.ample" st.Por.ample_states;
  Trace.count tr "por.proviso_blocked" st.Por.proviso_blocked;
  Trace.count tr "por.visible_blocked" st.Por.visible_blocked;
  Trace.count tr "por.no_refuser" st.Por.no_refuser

let pa_check ~expected ~reduce variant params req =
  let id =
    Printf.sprintf "pa/%s/%s/n%d/%d-%d/%s"
      (H.Pa_models.variant_name variant)
      (if reduce then "reduced" else "full")
      params.H.Params.n params.H.Params.tmin params.H.Params.tmax
      (H.Requirements.name req)
  in
  let traced tr =
    let spec =
      Trace.span tr "heartbeat.build" (fun () -> H.Pa_models.build variant params)
    in
    let compiled =
      Trace.span tr "proc.compile" (fun () -> Proc.Semantics.compile spec)
    in
    let sys = Trace.system tr Trace.Proc (Proc.Semantics.system_of compiled) in
    let expected_states =
      Trace.span tr "lint.static_bound" (fun () ->
          expected_of (Lint.Pa.static_bound_cached spec))
    in
    let analysis =
      if reduce then
        Some (Trace.span tr "por.analyze" (fun () -> Por.analyze_cached spec))
      else None
    in
    let rec go = function
      | [] -> Mc.Safety.Holds
      | (m, alphabet) :: rest -> (
          let reduction =
            Option.map
              (fun a ->
                let rsys, st = Por.reduced_system_stats ~alphabet ~par:false a in
                (Trace.system tr Trace.Por rsys, st))
              analysis
          in
          let v =
            Trace.span tr ~engine:Trace.Explore "mc.explore" (fun () ->
                Mc.Safety.check_monitor ~max_states:pa_max ?expected_states
                  ~domains:1 ?reduction:(Option.map fst reduction)
                  ~parallel_reduction:false sys (Trace.monitor tr m))
          in
          Option.iter (fun (_, st) -> add_por_stats tr st) reduction;
          match v with Mc.Safety.Holds -> go rest | v -> v)
    in
    fst (safety_result id (go (pa_monitors variant params req)))
  in
  let run tr =
    let holds =
      match tr with
      | None -> H.Pa_verify.check ~reduce variant params req
      | Some _ -> traced tr
    in
    {
      verdict = holds_name holds;
      states = None;
      check = (fun () -> expect ("expected " ^ holds_name expected) (holds = expected));
    }
  in
  {
    id;
    engine = (if reduce then "pa-por" else "pa");
    phase = (if reduce then "pa_reduced" else "pa_full");
    domains = 1;
    run;
  }

(* --- Fontana-Cleaveland on the zone engine --------------------------- *)

let fc_query ~id ~phase (spec : Fc.spec) =
  let expected = Pins.fc_safe spec.Fc.fc_name in
  let run tr =
    if Option.is_some tr then
      ignore
        (Trace.span tr "lubounds.analyze" (fun () ->
             Lubounds.analyze_cached spec.Fc.model));
    let z =
      Trace.span tr "zone.compile" (fun () ->
          Zone.Sym.compile ~lu:Zone.Sym.Location spec.Fc.model)
    in
    let bad = Trace.pred tr (Fc.bad_predicate spec (Zone.Sym.net z)) in
    let states, (safe, cex) = zone_find tr z bad in
    let replay trace =
      let net = Ta.Semantics.compile spec.Fc.model in
      Zone.Reach.guided_replay (Ta.Semantics.system net) ~trace
        ~goal:(Fc.bad_predicate spec net)
    in
    let o = safety_outcome ~states ~expected ~replay (safe, cex) in
    { o with verdict = (if safe then "safe" else "unsafe") }
  in
  { id; engine = "zone-lu"; phase; domains = 1; run }

(* --- the largest heartbeat space ------------------------------------- *)

let graph_digest (sp : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (sp.Mc.Explore.lts, sp.Mc.Explore.states, sp.Mc.Explore.complete)
          [ Marshal.No_sharing ]))

let out_dir = ".perfbench-out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* The pinned counts of the complete big space. *)
let space_counts_ok (sp : _ Mc.Explore.space) =
  sp.Mc.Explore.complete
  && Lts.Graph.num_states sp.Mc.Explore.lts = Pins.big_states
  && Lts.Graph.num_transitions sp.Mc.Explore.lts = Pins.big_transitions

(* Domains of the big-space parallel queries. *)
let par_domains = 2

let big_queries ~seed net params =
  let sys tr = Trace.system tr Trace.Ta (Ta.Semantics.system net) in
  (* Digests of the uninterrupted and of the resumed graph, kept by the
     two queries' checks: whichever check runs second compares them,
     so no extra exploration is needed in any query order. *)
  let space_digest = ref None and resumed_digest = ref None in
  let record mine other sp =
    if not (space_counts_ok sp) then Some "state or transition count differs"
    else
      let d = graph_digest sp in
      mine := Some d;
      match !other with
      | Some d' when d <> d' ->
          Some "resumed graph differs from the uninterrupted one"
      | _ -> None
  in
  let space =
    let run tr =
      let sp =
        Trace.span tr ~engine:Trace.Explore "mc.explore" (fun () ->
            Mc.Explore.space (sys tr))
      in
      {
        verdict = "complete";
        states = Some (Lts.Graph.num_states sp.Mc.Explore.lts);
        check = (fun () -> record space_digest resumed_digest sp);
      }
    in
    { id = "big/space"; engine = "explore"; phase = "space"; domains = 1; run }
  in
  (* the seed picks the suspend point between 40% and 60% of the states *)
  let suspend_at =
    let rng = Random.State.make [| seed; 0x5eed |] in
    Pins.big_states * (40 + Random.State.int rng 21) / 100
  in
  let checkpoint =
    let run tr =
      let sys = sys tr in
      let left = Atomic.make suspend_at in
      let budget =
        Mc.Budget.make
          ~probe:(fun () ->
            if Atomic.fetch_and_add left (-1) > 0 then None
            else Some Mc.Budget.Cancelled)
          ~check_every:1 ()
      in
      let cursor =
        match
          Trace.span tr ~engine:Trace.Explore "mc.explore" (fun () ->
              Mc.Explore.space_run ~budget sys)
        with
        | Mc.Explore.Suspended (_, c) -> c
        | Mc.Explore.Done _ -> failwith "big/checkpoint: run did not suspend"
      in
      ensure_out_dir ();
      let file =
        Filename.concat out_dir (Printf.sprintf "checkpoint-%d.ck" (Unix.getpid ()))
      in
      let kind = "perfbench/big/dynamic" in
      Trace.span tr "mc.checkpoint.save" (fun () ->
          Mc.Checkpoint.save ~file ~kind cursor);
      Trace.count tr "mc.checkpoint.bytes" (Unix.stat file).Unix.st_size;
      let (loaded : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.cursor) =
        Trace.span tr "mc.checkpoint.load" (fun () ->
            match Mc.Checkpoint.load ~file ~kind with
            | Ok c -> c
            | Error e -> failwith ("big/checkpoint: " ^ e))
      in
      Sys.remove file;
      let sp =
        match
          Trace.span tr ~engine:Trace.Resume "mc.explore.resume" (fun () ->
              Mc.Explore.space_run ~resume:loaded sys)
        with
        | Mc.Explore.Done sp -> sp
        | Mc.Explore.Suspended _ -> failwith "big/checkpoint: resume suspended"
      in
      {
        verdict = "resumed";
        states = Some (Lts.Graph.num_states sp.Mc.Explore.lts);
        check = (fun () -> record resumed_digest space_digest sp);
      }
    in
    {
      id = "big/checkpoint";
      engine = "explore+checkpoint";
      phase = "checkpoint";
      domains = 1;
      run;
    }
  in
  let checks domains phase =
    List.map
      (fun req ->
        ta_safety ~domains ~phase ~expected:(Pins.big_holds req) ~fixed:false
          H.Ta_models.Dynamic params req)
      [ H.Requirements.R2; H.Requirements.R3 ]
  in
  (checkpoint :: space :: checks 1 "check_seq") @ checks par_domains "check_par2"

(* --- workloads -------------------------------------------------------- *)

let setup_ta model =
  ignore (Ta.Semantics.compile model);
  ignore (Lint.Ta_model.static_bound model)

(* The hbltl table's race points: tmin = tmax, the smallest instance
   for the multi-party variants. *)
let race_params v =
  if H.Ta_models.is_multi v && v <> H.Ta_models.Static then
    H.Params.make ~tmin:2 ~tmax:2 ()
  else H.Params.make ~tmin:4 ~tmax:4 ()

(* Tables 1, 2 and the Section 6 fixed versions: 6 variants x
   {original, fixed} x 5 datasets x R1-R3. *)
let paper_points f =
  List.concat_map
    (fun fixed ->
      List.concat_map
        (fun v ->
          List.concat_map
            (fun (tmin, tmax) ->
              let p = H.Params.make ~tmin ~tmax () in
              List.map (fun req -> f ~fixed v p (tmin, tmax) req) H.Requirements.all)
            H.Params.table_datasets)
        H.Ta_models.all_variants)
    [ false; true ]

let paper_safety ~zone =
  paper_points (fun ~fixed v p ds req ->
      ta_safety ~zone
        ~phase:(if zone then "zone_tables" else "safety")
        ~expected:(Pins.table ~fixed v ds req)
        ~fixed v p req)

let paper_tables =
  {
    name = "paper-tables";
    nominal_pass_s = 14.;
    warm_up = 0;
    prepare =
      (fun ~seed:_ ->
        ignore
          (paper_points (fun ~fixed v p _ req ->
               if req <> H.Requirements.R3 then
                 setup_ta (ta_model ~fixed v p req)));
        let live =
          List.concat_map
            (fun v ->
              List.concat_map
                (fun fixed ->
                  setup_ta (H.Ta_models.build ~fixed v (race_params v));
                  List.map (ta_live ~fixed v (race_params v)) H.Requirements.all)
                [ false; true ])
            H.Ta_models.all_variants
        in
        paper_safety ~zone:false @ live);
  }

let big_space =
  {
    name = "big-space";
    nominal_pass_s = 2.7;
    (* The checkpoint query holds the most memory of any: run first,
       it grows the heap to the size every later query reuses, so no
       timed query pays for growing it, whatever order the seed
       draws. *)
    warm_up = 1;
    prepare =
      (fun ~seed ->
        let params = H.Params.make ~tmin:1 ~tmax:20 () in
        let model = H.Ta_models.build H.Ta_models.Dynamic params in
        let net = Ta.Semantics.compile model in
        ignore (Lint.Ta_model.static_bound model);
        big_queries ~seed net params);
  }

let zone_dense =
  {
    name = "zone-dense";
    nominal_pass_s = 3.2;
    warm_up = 0;
    prepare =
      (fun ~seed:_ ->
        ignore
          (paper_points (fun ~fixed v p _ req ->
               if req <> H.Requirements.R3 then
                 ignore
                   (Zone.Sym.compile ~lu:Zone.Sym.Location
                      (ta_model ~fixed v p req))));
        let fc spec = ignore (Zone.Sym.compile ~lu:Zone.Sym.Location spec.Fc.model) in
        (* FISCHER n=2..8: n=9 (237 836 zones, about 5 s) would fill
           most of a pass, leaving too few passes in a run for a steady
           per-query median; n=8 (64 534 zones) runs the same code. *)
        let ladder =
          List.init 7 (fun k ->
              let n = k + 2 in
              let spec = Fc.fischer_spec ~n () in
              fc spec;
              fc_query ~id:(Printf.sprintf "fischer/n%d" n) ~phase:"fischer" spec)
        in
        let others =
          List.filter_map
            (fun (spec : Fc.spec) ->
              if spec.Fc.fc_name = "fischer" then None
              else (
                fc spec;
                Some (fc_query ~id:("fc/" ^ spec.Fc.fc_name) ~phase:"fc" spec)))
            Fc.all
        in
        paper_safety ~zone:true @ ladder @ others);
  }

(* The partial-order-reduction gate's points: static at n=2 (2,3), the
   other variants at n=1 (2,4). *)
let pa_params v =
  if v = H.Pa_models.Static then H.Params.make ~n:2 ~tmin:2 ~tmax:3 ()
  else H.Params.make ~n:1 ~tmin:2 ~tmax:4 ()

let pa_variants =
  H.Pa_models.[ Binary; Revised; Two_phase; Static; Expanding; Dynamic ]

let pa_por =
  {
    name = "pa-por";
    nominal_pass_s = 8.3;
    warm_up = 0;
    prepare =
      (fun ~seed:_ ->
        List.concat_map
          (fun v ->
            let p = pa_params v in
            let spec = H.Pa_models.build v p in
            ignore (Proc.Semantics.compile spec);
            ignore (Lint.Pa.static_bound spec);
            ignore (Por.analyze spec);
            List.concat_map
              (fun reduce ->
                List.map
                  (fun req -> pa_check ~expected:(Pins.pa v req) ~reduce v p req)
                  H.Requirements.all)
              [ false; true ])
          pa_variants);
  }

let all = [ paper_tables; big_space; zone_dense; pa_por ]
let find name = List.find_opt (fun w -> w.name = name) all
