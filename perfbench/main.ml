(* One seeded workload of the verifier, measured.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--host-nproc N] [--host-commit ID]

   Prints a host record, one row per query and a workload report as
   JSON lines, then, as the last line, the result object: with
   [--trace 0] the end-to-end metrics (times scaled to the reference
   host speed, see {!Host}; the report line holds them raw), with
   [--trace 1] the per-layer metrics of the traced passes.  Exits 1
   if any query failed, 2 on a usage error. *)

open Perfbench

let start = Trace.now_ns ()

(* Set-up is repeated at least [setup_min_reps] times and for at least
   [setup_min_s] seconds (at most [setup_max_reps] times), and its
   median reported: a few-millisecond set-up needs many repetitions
   for a steady median.  The first repetition is timed from process
   start. *)
let setup_min_reps = 5
let setup_min_s = 1.0
let setup_max_reps = 5000

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int option;
  commit : string option;
}

let usage msg =
  prerr_endline
    ("perfbench: " ^ msg
   ^ "\nusage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
      [--host-nproc N] [--host-commit ID]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let parse argv =
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { a with seconds = float (int_of "--seconds" v) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--host-nproc" :: v :: rest ->
        go { a with nproc = Some (int_of "--host-nproc" v) } rest
    | "--host-commit" :: v :: rest -> go { a with commit = Some v } rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  let a =
    go
      {
        workload = "";
        seed = 0;
        seconds = 0.;
        trace = false;
        nproc = None;
        commit = None;
      }
      (List.tl (Array.to_list argv))
  in
  if a.seconds <= 0. then usage "--seconds must be a positive integer";
  a

let print_line fields = print_endline (Json.obj fields)

let () =
  let a = parse Sys.argv in
  let w =
    match Workloads.find a.workload with
    | Some w -> w
    | None -> usage (Printf.sprintf "unknown workload %S" a.workload)
  in
  let queries, setup_times =
    let rec go i times queries =
      let spent = Bench.seconds_between start (Trace.now_ns ()) in
      if i = setup_max_reps || (i >= setup_min_reps && spent >= setup_min_s)
      then (queries, times)
      else
        let t0 = if i = 0 then start else Trace.now_ns () in
        let q = w.Workloads.prepare ~seed:a.seed in
        let t = Bench.seconds_between t0 (Trace.now_ns ()) in
        Host.sample ();
        go (i + 1) (t :: times) q
    in
    go 0 [] []
  in
  let setup = Stats.median setup_times and setup_scale = Host.scale () in
  Host.restart ();
  print_line
    [
      ( "host",
        Json.obj
          [
            ("nproc", Json.opt Json.int a.nproc);
            ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
            ("ocaml", Json.str Sys.ocaml_version);
            ("commit", Json.opt Json.str a.commit);
            ("seed", Json.int a.seed);
            ("workload", Json.str w.Workloads.name);
          ] );
    ];
  let passes = max 1 (int_of_float (a.seconds /. w.Workloads.nominal_pass_s)) in
  let rng = Random.State.make [| a.seed |] in
  let emit r = print_line [ ("row", Bench.row_json r) ] in
  let tr = Trace.create () in
  let warm =
    List.filteri (fun i _ -> i < w.Workloads.warm_up) queries
    |> List.map (fun q ->
           let r = Bench.run_query ~workload:w.Workloads.name ~pass:0 None q in
           emit r;
           r)
  in
  let untraced = ref [] and traced = ref [] in
  let minor_words = ref 0. and major = ref 0 in
  let lookups = ref 0 and hits = ref 0 in
  for pass = 1 to passes do
    let run ?tr () =
      Bench.run_pass ~workload:w.Workloads.name ~pass ~rng ?tr ~emit queries
    in
    untraced := run () :: !untraced;
    if a.trace then begin
      let g0 = Gc.quick_stat () and c0 = Heartbeat.Analysis_cache.stats () in
      traced := run ~tr () :: !traced;
      let g1 = Gc.quick_stat () and c1 = Heartbeat.Analysis_cache.stats () in
      minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
      major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
      lookups :=
        !lookups
        + Heartbeat.Analysis_cache.lookups c1
        - Heartbeat.Analysis_cache.lookups c0;
      hits :=
        !hits + Heartbeat.Analysis_cache.hits c1 - Heartbeat.Analysis_cache.hits c0
    end
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let rows = warm @ List.concat (untraced @ traced) in
  let attempted = List.length rows in
  let failures = List.filter (fun r -> r.Bench.failure <> None) rows in
  let failed = List.length failures in
  List.iter
    (fun r ->
      Printf.eprintf "perfbench: FAILED %s (pass %d%s): %s\n" r.Bench.query
        r.Bench.pass
        (if r.Bench.traced then ", traced" else "")
        (Option.get r.Bench.failure))
    failures;
  let untraced_rows = List.concat untraced in
  (* End-to-end times: the single-domain queries, host-scaled. *)
  let times =
    List.map snd
      (Bench.typical Bench.scaled
         (List.filter (fun (r : Bench.row) -> r.domains = 1) untraced_rows))
  in
  let wall = Stats.sum times in
  let n = List.length times in
  let ms p = 1000. *. Stats.percentile p times in
  let raw = Bench.typical (fun r -> r.Bench.seconds) untraced_rows in
  let raw_wall = Stats.sum (List.map snd raw) in
  (* Each query's median peak over the passes, then the largest. *)
  let peak_mb =
    List.fold_left
      (fun m (_, kb) -> Float.max m kb)
      0.
      (Bench.typical (fun r -> float r.Bench.peak_kb) untraced_rows)
    /. 1024.
  in
  print_line
    [
      ( "report",
        Json.obj
          ([
             ("workload", Json.str w.Workloads.name);
             ("seed", Json.int a.seed);
             ("passes", Json.int passes);
             ("queries_per_pass", Json.int (List.length queries));
             ("attempted", Json.int attempted);
             ("failed", Json.int failed);
             ("failed_frac", Json.num (float failed /. float attempted));
             ("setup_reps", Json.int (List.length setup_times));
             ("pass_wall_s", Json.arr (List.map (fun p -> Json.num (Bench.pass_wall p)) untraced));
             ("raw_wall_s", Json.num raw_wall);
             ("setup_s", Json.num setup);
             ("setup_scale", Json.num setup_scale);
             ("query_samples", Json.int n);
             ("host_kernel_ms", Json.num (1000. *. Host.median_s ()));
           ]
          @ (match Stats.tail_percentile n with
            | Some p -> [ ("query_" ^ Stats.percentile_name p ^ "_ms", Json.num (ms p)) ]
            | None -> [])
          @ List.map (fun (k, v) -> (k, Json.num v)) (Bench.phase_sums raw)) );
    ];
  let metrics =
    if not a.trace then
      [
        ("wall_s", "s", wall);
        ("setup_s", "s", setup *. setup_scale);
        ("peak_rss_mb", "MB", peak_mb);
        ("query_p50_ms", "ms", ms 500);
      ]
    else begin
      Workloads.ensure_out_dir ();
      let file =
        Filename.concat Workloads.out_dir
          (Printf.sprintf "spans-%s-seed%d.jsonl" w.Workloads.name a.seed)
      in
      Out_channel.with_open_text file (fun oc -> Trace.to_jsonl oc tr);
      let g = Gc.quick_stat () in
      Bench.layer_metrics tr (Trace.totals ())
        {
          Bench.overhead_frac =
            (Stats.sum
               (List.map snd
                  (Bench.typical (fun r -> r.Bench.seconds) (List.concat traced)))
            /. raw_wall)
            -. 1.;
          minor_words = !minor_words;
          major_collections = !major;
          top_heap_mb =
            float (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
          cache_lookups = !lookups;
          cache_hits = !hits;
          domains = Workloads.par_domains;
          passes;
        }
    end
  in
  print_line
    [
      ("correct", Json.bool (failed = 0));
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ("metrics", Bench.metrics_json metrics);
    ];
  exit (if failed = 0 then 0 else 1)
