(* Tests of the benchmark's own code: percentiles, failure counting,
   the traced system wrapper, seeded determinism, and the pinned
   process-algebra verdicts against the timed-automata engine. *)

open Perfbench
module H = Heartbeat

let check = Alcotest.check

(* --- percentiles ------------------------------------------------------ *)

let test_percentile () =
  let xs n = List.init n (fun i -> float (n - i)) in
  check (Alcotest.float 0.) "median of 3" 2. (Stats.median [ 3.; 1.; 2. ]);
  check (Alcotest.float 0.) "lower median of 4" 2. (Stats.median (xs 4));
  check (Alcotest.float 0.) "p90 of 1..100" 90. (Stats.percentile 900 (xs 100));
  check (Alcotest.float 0.) "p90 of 1..10" 9. (Stats.percentile 900 (xs 10));
  check (Alcotest.float 0.) "p99.9 of 1..1000" 999.
    (Stats.percentile 999 (xs 1000));
  check (Alcotest.float 0.) "single sample" 5. (Stats.percentile 990 [ 5. ]);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.median []))

let test_tail_rule () =
  let tail = Alcotest.(option int) in
  (* p90 needs ten samples beyond it: 100 samples, not 99 *)
  check tail "99 samples" None (Stats.tail_percentile 99);
  check tail "100 samples" (Some 900) (Stats.tail_percentile 100);
  check tail "109 samples" (Some 900) (Stats.tail_percentile 109);
  check tail "999 samples" (Some 900) (Stats.tail_percentile 999);
  check tail "1000 samples" (Some 990) (Stats.tail_percentile 1000);
  check tail "10000 samples" (Some 999) (Stats.tail_percentile 10000);
  check Alcotest.string "name" "p99.9" (Stats.percentile_name 999);
  check Alcotest.string "name" "p90" (Stats.percentile_name 900)

(* --- failure counting ------------------------------------------------- *)

let binary = H.Params.make ~tmin:1 ~tmax:10 ()

(* Table 1: binary at (1,10) violates R1. *)
let r1_query ~expected =
  Workloads.ta_safety ~phase:"t" ~expected ~fixed:false H.Ta_models.Binary
    binary H.Requirements.R1

let test_wrong_pin_counts () =
  List.iter
    (fun tr ->
      let row q = Bench.run_query ~workload:"t" ~pass:1 tr q in
      let right = row (r1_query ~expected:false) in
      let wrong = row (r1_query ~expected:true) in
      check Alcotest.(option string) "pinned verdict passes" None right.Bench.failure;
      check Alcotest.string "verdict" "violated" wrong.Bench.verdict;
      check Alcotest.bool "injected wrong pin fails" true (wrong.Bench.failure <> None))
    [ None; Some (Trace.create ()) ];
  let raising =
    { (r1_query ~expected:false) with Workloads.run = (fun _ -> failwith "boom") }
  in
  let r = Bench.run_query ~workload:"t" ~pass:1 None raising in
  check Alcotest.(option string) "exception is a failure" (Some "raised Failure(\"boom\")")
    r.Bench.failure

(* --- the traced wrapper ----------------------------------------------- *)

let graph_bytes (sp : _ Mc.Explore.space) =
  Marshal.to_string
    (sp.Mc.Explore.lts, sp.Mc.Explore.states, sp.Mc.Explore.complete)
    [ Marshal.No_sharing ]

let test_wrapper_identical () =
  let net = Ta.Semantics.compile (H.Ta_models.build H.Ta_models.Binary binary) in
  let plain = graph_bytes (Mc.Explore.space (Ta.Semantics.system net)) in
  let tr = Some (Trace.create ()) in
  let wrapped () = Trace.system tr Trace.Ta (Ta.Semantics.system net) in
  let calls engine =
    Bench.select (Trace.totals ()).Trace.calls ~engines:[ engine ]
      ~sems:[ Trace.Ta ] ~ops:[ Trace.Succ ]
  in
  (* the counters are process-wide: compare deltas *)
  let seq_before = calls Trace.Explore and par_before = calls Trace.Pexplore in
  let seq =
    Trace.span tr ~engine:Trace.Explore "mc.explore" (fun () ->
        Mc.Explore.space (wrapped ()))
  in
  check Alcotest.bool "sequential graph byte-identical" true
    (String.equal plain (graph_bytes seq));
  check Alcotest.int "one successor call per state" 4783
    (calls Trace.Explore - seq_before);
  let par =
    Trace.span tr ~engine:Trace.Pexplore "mc.pexplore" (fun () ->
        Mc.Pexplore.space ~domains:2 (wrapped ()))
  in
  check Alcotest.bool "2-domain graph byte-identical" true
    (String.equal plain (graph_bytes par));
  check Alcotest.bool "worker-domain calls are summed" true
    (calls Trace.Pexplore - par_before >= 4783)

(* --- seeded determinism ----------------------------------------------- *)

let liveness_rows seed =
  let queries =
    List.filter
      (fun q -> q.Workloads.phase = "liveness")
      (Workloads.paper_tables.Workloads.prepare ~seed)
  in
  let rng = Random.State.make [| seed |] in
  Bench.run_pass ~workload:"paper-tables" ~pass:1 ~rng ~emit:ignore queries
  |> List.map Bench.row_untimed

let test_seed_determinism () =
  let a = liveness_rows 7 and b = liveness_rows 7 and c = liveness_rows 8 in
  let ids = List.map (fun r -> r.Bench.query) in
  check Alcotest.(list string) "same seed, same order" (ids a) (ids b);
  check Alcotest.bool "same seed, same rows apart from timings" true (a = b);
  check Alcotest.bool "another seed, another order" true (ids a <> ids c);
  check Alcotest.(list string) "another seed, same queries"
    (List.sort compare (ids a))
    (List.sort compare (ids c))

(* --- the pinned process-algebra verdicts ------------------------------ *)

let test_pa_pins_match_ta () =
  List.iter
    (fun v ->
      let ta =
        match v with
        | H.Pa_models.Binary -> H.Ta_models.Binary
        | Revised -> Revised
        | Two_phase -> Two_phase
        | Static -> Static
        | Expanding -> Expanding
        | Dynamic -> Dynamic
      in
      List.iter
        (fun req ->
          check Alcotest.bool
            (H.Pa_models.variant_name v ^ " " ^ H.Requirements.name req)
            (H.Verify.check ta (Workloads.pa_params v) req).H.Verify.holds
            (Pins.pa v req))
        H.Requirements.all)
    Workloads.pa_variants

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond the tail" `Quick test_tail_rule;
        ] );
      ( "bench",
        [
          Alcotest.test_case "wrong pin counts as failed" `Quick
            test_wrong_pin_counts;
          Alcotest.test_case "wrapped system is byte-identical" `Quick
            test_wrapper_identical;
          Alcotest.test_case "seed fixes order and rows" `Quick
            test_seed_determinism;
          Alcotest.test_case "PA pins agree with the TA engine" `Quick
            test_pa_pins_match_ta;
        ] );
    ]
