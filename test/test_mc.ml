(* Tests for the explicit-state checker: exploration, monitors, regular
   expressions and safety verdicts. *)

let check = Alcotest.check

(* A tiny reference system: a counter modulo [n] with an increment label,
   plus an optional "down" transition from the top. *)
let counter n : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0

    let successors s =
      if s = n - 1 then [ ("reset", 0) ] else [ ("inc", s + 1) ]

    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

(* A binary tree of choices of depth [d]: 2^d leaves, useful for bound
   tests. *)
let tree d : (int list, string) Mc.System.t =
  (module struct
    type state = int list
    type label = string

    let initial = []

    let successors s =
      if List.length s >= d then []
      else [ ("l", 0 :: s); ("r", 1 :: s) ]

    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf s = Format.fprintf ppf "%d" (List.length s)
    let pp_label = Format.pp_print_string
  end)

let test_space_counter () =
  let space = Mc.Explore.space (counter 10) in
  check Alcotest.bool "complete" true space.Mc.Explore.complete;
  check Alcotest.int "states" 10 (Lts.Graph.num_states space.Mc.Explore.lts);
  check Alcotest.int "transitions" 10
    (Lts.Graph.num_transitions space.Mc.Explore.lts);
  check Alcotest.int "state array" 10 (Array.length space.Mc.Explore.states)

let test_space_bound () =
  let space = Mc.Explore.space ~max_states:5 (counter 10) in
  check Alcotest.bool "truncated" false space.Mc.Explore.complete;
  check Alcotest.int "bounded" 5 (Lts.Graph.num_states space.Mc.Explore.lts)

let test_count () =
  check Alcotest.(pair int bool) "count" (10, true) (Mc.Explore.count (counter 10));
  check Alcotest.(pair int bool) "tree" (15, true) (Mc.Explore.count (tree 3))

let test_find_shortest () =
  match Mc.Explore.find ~goal:(fun s -> s = 7) (counter 10) with
  | Mc.Explore.Reached w ->
      check Alcotest.int "length" 7 (List.length w.Mc.Explore.trace);
      check Alcotest.int "state" 7 w.Mc.Explore.state
  | _ -> Alcotest.fail "expected Reached"

let test_find_unreachable () =
  match Mc.Explore.find ~goal:(fun s -> s = 42) (counter 10) with
  | Mc.Explore.Unreachable -> ()
  | _ -> Alcotest.fail "expected Unreachable"

let test_find_initial () =
  match Mc.Explore.find ~goal:(fun s -> s = 0) (counter 10) with
  | Mc.Explore.Reached w -> check Alcotest.int "empty trace" 0 (List.length w.Mc.Explore.trace)
  | _ -> Alcotest.fail "expected Reached"

let test_find_bound () =
  match Mc.Explore.find ~max_states:4 ~goal:(fun s -> s = 9) (counter 10) with
  | Mc.Explore.Bound_hit n -> check Alcotest.int "bound" 4 n
  | _ -> Alcotest.fail "expected Bound_hit"

(* --- truncation contract (see Explore.space doc) --- *)

(* A random sparse successor table over states 0..n-1, for contract
   properties. *)
type rand_sys = { n : int; succ : (string * int) array array }

let table_system { succ; _ } : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0
    let successors s = Array.to_list succ.(s)
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let rand_sys_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 30 >>= fun n ->
    let edge = pair (oneofl [ "a"; "b"; "c" ]) (int_bound (n - 1)) in
    array_size (return n) (array_size (int_bound 3) edge) >>= fun succ ->
    return { n; succ }
  in
  let print { n; succ } =
    Format.asprintf "%d states:%s" n
      (String.concat ""
         (List.mapi
            (fun s edges ->
              Printf.sprintf " %d->[%s]" s
                (String.concat ","
                   (List.map
                      (fun (l, t) -> l ^ string_of_int t)
                      (Array.to_list edges))))
            (Array.to_list succ)))
  in
  QCheck.make ~print gen

(* Truncated exploration is the induced subgraph on the first [max_states]
   states in BFS discovery order: the state array is a prefix of the full
   one, the transition list is the order-preserving restriction to retained
   endpoints, and [complete] is false exactly when states were cut. *)
let prop_truncation_prefix =
  QCheck.Test.make ~name:"truncated space = induced prefix subgraph"
    ~count:200
    QCheck.(pair rand_sys_arb small_nat)
    (fun (rs, m) ->
      let sys = table_system rs in
      let full = Mc.Explore.space sys in
      let full_n = Lts.Graph.num_states full.Mc.Explore.lts in
      let k = m mod (full_n + 2) in
      let tr = Mc.Explore.space ~max_states:k sys in
      let kept = Lts.Graph.num_states tr.Mc.Explore.lts in
      kept = max 1 (min k full_n)
      && tr.Mc.Explore.states = Array.sub full.Mc.Explore.states 0 kept
      && Lts.Graph.transitions tr.Mc.Explore.lts
         = List.filter
             (fun (i, _, j) -> i < kept && j < kept)
             (Lts.Graph.transitions full.Mc.Explore.lts)
      && tr.Mc.Explore.complete = (kept = full_n))

let test_truncation_tree () =
  let full = Mc.Explore.space (tree 4) in
  check Alcotest.int "full tree" 31
    (Lts.Graph.num_states full.Mc.Explore.lts);
  let tr = Mc.Explore.space ~max_states:12 (tree 4) in
  check Alcotest.bool "truncated" false tr.Mc.Explore.complete;
  check Alcotest.int "kept" 12 (Lts.Graph.num_states tr.Mc.Explore.lts);
  check Alcotest.bool "states are a prefix" true
    (tr.Mc.Explore.states = Array.sub full.Mc.Explore.states 0 12);
  check Alcotest.bool "transitions are the induced restriction" true
    (Lts.Graph.transitions tr.Mc.Explore.lts
    = List.filter
        (fun (i, _, j) -> i < 12 && j < 12)
        (Lts.Graph.transitions full.Mc.Explore.lts))

let test_bound_exact_is_complete () =
  (* A bound equal to the exact state count is not a truncation. *)
  let space = Mc.Explore.space ~max_states:10 (counter 10) in
  check Alcotest.bool "complete at exact bound" true space.Mc.Explore.complete;
  check Alcotest.(pair int bool) "count at exact bound" (10, true)
    (Mc.Explore.count ~max_states:10 (counter 10));
  let below = Mc.Explore.space ~max_states:9 (counter 10) in
  check Alcotest.bool "truncated one below" false below.Mc.Explore.complete

(* --- find edge cases --- *)

let test_find_bound_boundary () =
  (* Goal at state 7 of a 10-counter: reachable with bound 8 (the goal is
     the 8th interned state), Bound_hit with bound 7. *)
  (match Mc.Explore.find ~max_states:8 ~goal:(fun s -> s = 7) (counter 10) with
  | Mc.Explore.Reached w ->
      check Alcotest.int "reached just inside bound" 7
        (List.length w.Mc.Explore.trace)
  | _ -> Alcotest.fail "expected Reached with bound 8");
  match Mc.Explore.find ~max_states:7 ~goal:(fun s -> s = 7) (counter 10) with
  | Mc.Explore.Bound_hit n -> check Alcotest.int "bound hit" 7 n
  | _ -> Alcotest.fail "expected Bound_hit with bound 7"

(* A diamond with a shortcut: BFS must take the short edge even though the
   long path is listed first. *)
let diamond : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0

    let successors = function
      | 0 -> [ ("long", 1); ("short", 3) ]
      | 1 -> [ ("mid", 2) ]
      | 2 -> [ ("last", 3) ]
      | _ -> []

    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let test_find_diamond_shortest () =
  match Mc.Explore.find ~goal:(fun s -> s = 3) diamond with
  | Mc.Explore.Reached w ->
      check Alcotest.(list string) "takes the shortcut" [ "short" ]
        w.Mc.Explore.trace
  | _ -> Alcotest.fail "expected Reached"

(* First-path depth-first search over a successor table, for comparison
   with the BFS witness. *)
let dfs_find ~goal (succ : (string * int) array array) =
  let visited = Hashtbl.create 16 in
  let rec go s trace =
    if goal s then Some (List.rev trace)
    else if Hashtbl.mem visited s then None
    else begin
      Hashtbl.add visited s ();
      Array.fold_left
        (fun acc (l, t) ->
          match acc with Some _ -> acc | None -> go t (l :: trace))
        None succ.(s)
    end
  in
  go 0 []

let prop_bfs_no_longer_than_dfs =
  QCheck.Test.make ~name:"find witness is no longer than a DFS path"
    ~count:200
    QCheck.(pair rand_sys_arb small_nat)
    (fun (rs, g) ->
      let goal s = s = g mod rs.n in
      match (Mc.Explore.find ~goal (table_system rs), dfs_find ~goal rs.succ)
      with
      | Mc.Explore.Reached w, Some dfs_trace ->
          List.length w.Mc.Explore.trace <= List.length dfs_trace
      | Mc.Explore.Unreachable, None -> true
      | _ -> false)

(* --- monitors --- *)

let run_monitor (m : string Mc.Monitor.t) word =
  let q = List.fold_left m.Mc.Monitor.step m.Mc.Monitor.start word in
  m.Mc.Monitor.accepting q

let test_monitor_never () =
  let m = Mc.Monitor.never (String.equal "bad") in
  check Alcotest.bool "clean" false (run_monitor m [ "a"; "b" ]);
  check Alcotest.bool "hit" true (run_monitor m [ "a"; "bad" ]);
  check Alcotest.bool "latches" true (run_monitor m [ "bad"; "a" ])

let test_monitor_always () =
  let m = Mc.Monitor.always (String.equal "ok") in
  check Alcotest.bool "all ok" false (run_monitor m [ "ok"; "ok" ]);
  check Alcotest.bool "one off" true (run_monitor m [ "ok"; "nope" ])

let test_monitor_precedence () =
  let m =
    Mc.Monitor.precedence ~fault:(String.equal "fault") ~bad:(String.equal "bad")
  in
  check Alcotest.bool "bad before fault" true (run_monitor m [ "x"; "bad" ]);
  check Alcotest.bool "fault discharges" false
    (run_monitor m [ "fault"; "bad" ]);
  check Alcotest.bool "no bad" false (run_monitor m [ "x"; "fault" ])

let test_monitor_deadline () =
  let tick = String.equal "t" in
  let reset = String.equal "r" in
  let ok = String.equal "done" in
  let m = Mc.Monitor.deadline ~tick ~reset ~ok 3 in
  check Alcotest.bool "within deadline" false (run_monitor m [ "t"; "t"; "t" ]);
  check Alcotest.bool "past deadline" true
    (run_monitor m [ "t"; "t"; "t"; "t" ]);
  check Alcotest.bool "reset restarts" false
    (run_monitor m [ "t"; "t"; "r"; "t"; "t"; "t" ]);
  check Alcotest.bool "ok discharges" false
    (run_monitor m [ "t"; "t"; "t"; "done"; "t"; "t" ])

(* --- regular expressions --- *)

let sym c = Mc.Regex.atom (String.make 1 c) (fun l -> l = String.make 1 c)

let test_regex_matches () =
  let r = Mc.Regex.(seq (sym 'a') (star (sym 'b'))) in
  check Alcotest.bool "a" true (Mc.Regex.matches r [ "a" ]);
  check Alcotest.bool "abb" true (Mc.Regex.matches r [ "a"; "b"; "b" ]);
  check Alcotest.bool "b" false (Mc.Regex.matches r [ "b" ]);
  check Alcotest.bool "empty" false (Mc.Regex.matches r [])

let test_regex_alt_opt_plus () =
  let r = Mc.Regex.(alt (plus (sym 'a')) (opt (sym 'b'))) in
  check Alcotest.bool "eps (via opt)" true (Mc.Regex.matches r []);
  check Alcotest.bool "aa" true (Mc.Regex.matches r [ "a"; "a" ]);
  check Alcotest.bool "b" true (Mc.Regex.matches r [ "b" ]);
  check Alcotest.bool "ba" false (Mc.Regex.matches r [ "b"; "a" ])

let test_regex_repeat () =
  let r = Mc.Regex.repeat (sym 'a') 3 in
  check Alcotest.bool "aaa" true (Mc.Regex.matches r [ "a"; "a"; "a" ]);
  check Alcotest.bool "aa" false (Mc.Regex.matches r [ "a"; "a" ]);
  check Alcotest.bool "aaaa" false (Mc.Regex.matches r [ "a"; "a"; "a"; "a" ]);
  Alcotest.check_raises "negative" (Invalid_argument "Mc.Regex.repeat: negative count")
    (fun () -> ignore (Mc.Regex.repeat (sym 'a') (-1)))

let test_regex_empty_eps () =
  check Alcotest.bool "empty matches nothing" false
    (Mc.Regex.matches Mc.Regex.empty []);
  check Alcotest.bool "eps matches empty" true (Mc.Regex.matches Mc.Regex.eps []);
  check Alcotest.bool "eps only empty" false
    (Mc.Regex.matches Mc.Regex.eps [ "a" ])

let test_regex_compile_agrees () =
  let r =
    Mc.Regex.(
      seq (star (alt (sym 'a') (sym 'b'))) (seq (sym 'a') (sym 'b')))
  in
  let m = Mc.Regex.compile r in
  let words =
    [
      []; [ "a" ]; [ "a"; "b" ]; [ "b"; "a"; "b" ]; [ "a"; "a"; "a" ];
      [ "b"; "b"; "a"; "b" ];
    ]
  in
  List.iter
    (fun w ->
      let direct = Mc.Regex.matches r w in
      let via_monitor =
        let q = List.fold_left m.Mc.Monitor.step m.Mc.Monitor.start w in
        m.Mc.Monitor.accepting q
      in
      check Alcotest.bool
        (Printf.sprintf "agree on %s" (String.concat "" w))
        direct via_monitor)
    words

(* Random regex/word agreement between [matches] and [compile]. *)
let regex_gen : string Mc.Regex.t QCheck.arbitrary =
  let open QCheck.Gen in
  let letter = map (fun i -> Char.chr (97 + i)) (int_bound 2) in
  let rec gen depth =
    if depth = 0 then map sym letter
    else
      frequency
        [
          (2, map sym letter);
          (1, return Mc.Regex.eps);
          (2, map2 Mc.Regex.seq (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 Mc.Regex.alt (gen (depth - 1)) (gen (depth - 1)));
          (1, map Mc.Regex.star (gen (depth - 1)));
        ]
  in
  QCheck.make
    ~print:(fun r -> Format.asprintf "%a" Mc.Regex.pp r)
    (gen 4)

let word_gen =
  QCheck.make
    ~print:(String.concat "")
    QCheck.Gen.(
      list_size (int_bound 6)
        (map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound 2)))

let prop_compile_agrees_matches =
  QCheck.Test.make ~name:"compiled monitor agrees with matches" ~count:300
    (QCheck.pair regex_gen word_gen) (fun (r, w) ->
      let m = Mc.Regex.compile r in
      let q = List.fold_left m.Mc.Monitor.step m.Mc.Monitor.start w in
      m.Mc.Monitor.accepting q = Mc.Regex.matches r w)

(* --- safety --- *)

let test_check_monitor () =
  let m = Mc.Monitor.never (String.equal "reset") in
  (match Mc.Safety.check_monitor (counter 3) m with
  | Mc.Safety.Violated trace ->
      check Alcotest.int "shortest violation" 3 (List.length trace)
  | _ -> Alcotest.fail "expected violation");
  match Mc.Safety.check_monitor (counter 3) (Mc.Monitor.never (String.equal "boom")) with
  | Mc.Safety.Holds -> ()
  | _ -> Alcotest.fail "expected holds"

let test_check_forbidden () =
  (* "two incs then a reset" is impossible on a 2-counter. *)
  let r =
    Mc.Regex.(
      seq (star any)
        (seq_list
           [
             atom "inc" (String.equal "inc");
             atom "inc" (String.equal "inc");
             atom "reset" (String.equal "reset");
           ]))
  in
  (match Mc.Safety.check_forbidden (counter 3) r with
  | Mc.Safety.Violated trace -> check Alcotest.int "len" 3 (List.length trace)
  | _ -> Alcotest.fail "expected violation");
  match Mc.Safety.check_forbidden (counter 2) r with
  | Mc.Safety.Holds -> ()
  | _ -> Alcotest.fail "expected holds"

let test_check_state () =
  (match Mc.Safety.check_state (counter 5) (fun s -> s = 4) with
  | Mc.Safety.Violated trace -> check Alcotest.int "len" 4 (List.length trace)
  | _ -> Alcotest.fail "expected violation");
  match Mc.Safety.check_state (counter 5) (fun s -> s > 5) with
  | Mc.Safety.Holds -> ()
  | _ -> Alcotest.fail "expected holds"

let test_check_unknown () =
  match Mc.Safety.check_state ~max_states:3 (counter 10) (fun s -> s = 9) with
  | Mc.Safety.Unknown 3 -> ()
  | _ -> Alcotest.fail "expected Unknown 3"

(* Truncating the product space must surface as Unknown (never Holds) for
   every checker entry point, including the parallel engine. *)
let test_check_unknown_monitor () =
  let m = Mc.Monitor.never (String.equal "boom") in
  (match Mc.Safety.check_monitor ~max_states:3 (counter 10) m with
  | Mc.Safety.Unknown 3 -> ()
  | _ -> Alcotest.fail "expected Unknown 3 from check_monitor");
  match Mc.Safety.check_monitor ~max_states:3 ~domains:2 (counter 10) m with
  | Mc.Safety.Unknown 3 -> ()
  | _ -> Alcotest.fail "expected Unknown 3 from parallel check_monitor"

let test_check_unknown_forbidden () =
  (* The violation needs three steps; a two-state product bound cannot
     decide it. *)
  let r =
    Mc.Regex.(
      seq (star any)
        (seq_list
           [
             atom "inc" (String.equal "inc");
             atom "inc" (String.equal "inc");
             atom "reset" (String.equal "reset");
           ]))
  in
  (match Mc.Safety.check_forbidden ~max_states:2 (counter 3) r with
  | Mc.Safety.Unknown 2 -> ()
  | _ -> Alcotest.fail "expected Unknown 2 from check_forbidden");
  (* A sufficient bound restores the definite verdict. *)
  match Mc.Safety.check_forbidden ~max_states:100 (counter 3) r with
  | Mc.Safety.Violated trace -> check Alcotest.int "len" 3 (List.length trace)
  | _ -> Alcotest.fail "expected Violated under a sufficient bound"

let test_holds_helper () =
  check Alcotest.bool "holds" true (Mc.Safety.holds Mc.Safety.Holds);
  check Alcotest.bool "violated" false (Mc.Safety.holds (Mc.Safety.Violated []));
  check Alcotest.bool "unknown" false (Mc.Safety.holds (Mc.Safety.Unknown 1))

let tests =
  ( "mc",
    [
      Alcotest.test_case "space of a counter" `Quick test_space_counter;
      Alcotest.test_case "space respects bound" `Quick test_space_bound;
      Alcotest.test_case "count" `Quick test_count;
      Alcotest.test_case "find shortest witness" `Quick test_find_shortest;
      Alcotest.test_case "find unreachable" `Quick test_find_unreachable;
      Alcotest.test_case "find initial state" `Quick test_find_initial;
      Alcotest.test_case "find bound hit" `Quick test_find_bound;
      QCheck_alcotest.to_alcotest prop_truncation_prefix;
      Alcotest.test_case "truncation contract on a tree" `Quick
        test_truncation_tree;
      Alcotest.test_case "exact bound is complete" `Quick
        test_bound_exact_is_complete;
      Alcotest.test_case "find at the bound boundary" `Quick
        test_find_bound_boundary;
      Alcotest.test_case "find takes the diamond shortcut" `Quick
        test_find_diamond_shortest;
      QCheck_alcotest.to_alcotest prop_bfs_no_longer_than_dfs;
      Alcotest.test_case "monitor never" `Quick test_monitor_never;
      Alcotest.test_case "monitor always" `Quick test_monitor_always;
      Alcotest.test_case "monitor precedence" `Quick test_monitor_precedence;
      Alcotest.test_case "monitor deadline" `Quick test_monitor_deadline;
      Alcotest.test_case "regex matches" `Quick test_regex_matches;
      Alcotest.test_case "regex alt/opt/plus" `Quick test_regex_alt_opt_plus;
      Alcotest.test_case "regex repeat" `Quick test_regex_repeat;
      Alcotest.test_case "regex empty/eps" `Quick test_regex_empty_eps;
      Alcotest.test_case "compile agrees with matches" `Quick
        test_regex_compile_agrees;
      QCheck_alcotest.to_alcotest prop_compile_agrees_matches;
      Alcotest.test_case "check_monitor" `Quick test_check_monitor;
      Alcotest.test_case "check_forbidden" `Quick test_check_forbidden;
      Alcotest.test_case "check_state" `Quick test_check_state;
      Alcotest.test_case "check unknown on bound" `Quick test_check_unknown;
      Alcotest.test_case "check_monitor unknown on bound" `Quick
        test_check_unknown_monitor;
      Alcotest.test_case "check_forbidden unknown on bound" `Quick
        test_check_unknown_forbidden;
      Alcotest.test_case "holds helper" `Quick test_holds_helper;
    ] )

(* --- CTL --- *)

(* A small graph with a trap: 0 -a-> 1 -b-> 2 (deadlock), 0 -c-> 0. *)
let ctl_graph =
  Lts.Graph.make ~num_states:3 ~initial:0
    [ (0, "a", 1); (1, "b", 2); (0, "c", 0) ]

let bset = Alcotest.(list bool)

let test_ctl_atoms_and_can () =
  let is s = Mc.Ctl.atom "is" (fun x -> x = s) in
  check bset "atom" [ false; true; false ]
    (Array.to_list (Mc.Ctl.eval ctl_graph (is 1)));
  check bset "can b" [ false; true; false ]
    (Array.to_list (Mc.Ctl.eval ctl_graph (Mc.Ctl.can "b" (String.equal "b"))))

let test_ctl_ef_ag () =
  let at2 = Mc.Ctl.atom "at2" (fun s -> s = 2) in
  check bset "EF at2" [ true; true; true ]
    (Array.to_list (Mc.Ctl.eval ctl_graph (Mc.Ctl.EF at2)));
  (* AG (EF at2): state 2 is a deadlock satisfying at2, all can reach it *)
  check Alcotest.bool "AG EF holds" true
    (Mc.Ctl.holds ctl_graph (Mc.Ctl.AG (Mc.Ctl.EF at2)));
  (* AG at0 fails immediately *)
  check Alcotest.bool "AG at0 fails" false
    (Mc.Ctl.holds ctl_graph (Mc.Ctl.AG (Mc.Ctl.atom "at0" (fun s -> s = 0))))

let test_ctl_eg_af () =
  let at0 = Mc.Ctl.atom "at0" (fun s -> s = 0) in
  (* The c-self-loop keeps an infinite run inside {0}. *)
  check Alcotest.bool "EG at0" true (Mc.Ctl.holds ctl_graph (Mc.Ctl.EG at0));
  (* AF at2 is false at 0 because of the same loop. *)
  let at2 = Mc.Ctl.atom "at2" (fun s -> s = 2) in
  check Alcotest.bool "AF at2 false" false
    (Mc.Ctl.holds ctl_graph (Mc.Ctl.AF at2));
  (* Without the loop AF holds. *)
  let chain =
    Lts.Graph.make ~num_states:3 ~initial:0 [ (0, "a", 1); (1, "b", 2) ]
  in
  check Alcotest.bool "AF on a chain" true (Mc.Ctl.holds chain (Mc.Ctl.AF at2))

let test_ctl_eu_au () =
  let at0 = Mc.Ctl.atom "at0" (fun s -> s = 0) in
  let at1 = Mc.Ctl.atom "at1" (fun s -> s = 1) in
  check Alcotest.bool "E[at0 U at1]" true
    (Mc.Ctl.holds ctl_graph (Mc.Ctl.EU (at0, at1)));
  (* A[at0 U at1] fails: the c-loop can avoid state 1 forever. *)
  check Alcotest.bool "A[at0 U at1] fails" false
    (Mc.Ctl.holds ctl_graph (Mc.Ctl.AU (at0, at1)))

let test_ctl_deadlock_semantics () =
  (* In the deadlock state: EX anything is false, AX anything true. *)
  let ex = Mc.Ctl.eval ctl_graph (Mc.Ctl.EX Mc.Ctl.True) in
  check Alcotest.bool "EX true at deadlock" false ex.(2);
  let ax = Mc.Ctl.eval ctl_graph (Mc.Ctl.AX Mc.Ctl.False) in
  check Alcotest.bool "AX false at deadlock" true ax.(2);
  (* EG needs an infinite path, so it is false at a deadlock even for
     [true]; dually AF is vacuously true there even for [false].  This is
     where CTL diverges from LTL under the stutter-extension policy (see
     test_ltl), which treats a deadlocked run as observable. *)
  let eg = Mc.Ctl.eval ctl_graph (Mc.Ctl.EG Mc.Ctl.True) in
  check Alcotest.bool "EG true at deadlock" false eg.(2);
  check Alcotest.bool "EG true on the c-loop" true eg.(0);
  let af = Mc.Ctl.eval ctl_graph (Mc.Ctl.AF Mc.Ctl.False) in
  check Alcotest.bool "AF false vacuous at deadlock" true af.(2);
  check Alcotest.bool "AF false elsewhere" false af.(0)

let test_ctl_witness () =
  let at2 = Mc.Ctl.atom "at2" (fun s -> s = 2) in
  match Mc.Ctl.witness_ef ctl_graph at2 with
  | Some w -> check Alcotest.(list string) "path" [ "a"; "b" ] w
  | None -> Alcotest.fail "expected a witness"

let ctl_tests =
  [
    Alcotest.test_case "ctl atoms and can" `Quick test_ctl_atoms_and_can;
    Alcotest.test_case "ctl EF/AG" `Quick test_ctl_ef_ag;
    Alcotest.test_case "ctl EG/AF" `Quick test_ctl_eg_af;
    Alcotest.test_case "ctl EU/AU" `Quick test_ctl_eu_au;
    Alcotest.test_case "ctl deadlock semantics" `Quick test_ctl_deadlock_semantics;
    Alcotest.test_case "ctl EF witness" `Quick test_ctl_witness;
  ]

let tests = (fst tests, snd tests @ ctl_tests)

(* --- the flat index against the Hashtbl reference -------------------- *)

(* Mc.Explore must agree byte for byte with [Explore_ref], the
   Hashtbl-based explorer it replaced: spaces, cursors, verdicts and
   traces.  Each system is run under its own hash, a constant hash
   (every state collides, so probe chains run the length of the table)
   and a negated one (every hash negative). *)

let hashes =
  [
    ("own", Hashtbl.hash);
    ("constant", fun (_ : int) -> 42);
    ("negated", fun s -> -1 - Hashtbl.hash s);
  ]

let rehashed (type l) hash (sys : (int, l) Mc.System.t) : (int, l) Mc.System.t =
  let module S = (val sys) in
  (module struct
    include S

    let hash_state = hash
  end)

let bytes x = Marshal.to_string x [ Marshal.No_sharing ]

let space_bytes (sp : (int, string) Mc.Explore.space) =
  bytes (sp.Mc.Explore.lts, sp.Mc.Explore.states, sp.Mc.Explore.complete)

(* A budget that trips on its [k]-th probe: in the sequential engine,
   after [k - 1] expanded states. *)
let tripping_budget k =
  let calls = Atomic.make 0 in
  Mc.Budget.make ~check_every:1
    ~probe:(fun () ->
      if Atomic.fetch_and_add calls 1 >= k - 1 then Some Mc.Budget.Cancelled
      else None)
    ()

(* Everything both engines answer on [sys]: the space, its checkpoint
   snapshots every [every] expansions, the cursor of a run suspended
   after [k - 1] expansions, the count, and a goal search. *)
let agrees ?max_states ~every ~k ~goal sys =
  let snaps run =
    let acc = ref [] in
    let r = run ~checkpoint:(every, fun c -> acc := c :: !acc) in
    (r, bytes !acc)
  in
  let sp, sp_snaps =
    snaps (fun ~checkpoint -> Mc.Explore.space_run ?max_states ~checkpoint sys)
  and rsp, rsp_snaps =
    snaps (fun ~checkpoint -> Explore_ref.space_run ?max_states ~checkpoint sys)
  in
  let suspended run =
    match run ~budget:(tripping_budget k) with
    | Mc.Explore.Suspended (_, c) -> Some c
    | Mc.Explore.Done _ -> None
  in
  let cur = suspended (fun ~budget -> Mc.Explore.space_run ?max_states ~budget sys)
  and rcur =
    suspended (fun ~budget -> Explore_ref.space_run ?max_states ~budget sys)
  in
  let resumed =
    match cur with
    | None -> true
    | Some c -> bytes (Mc.Explore.space_run ?max_states ~resume:c sys) = bytes rsp
  in
  bytes sp = bytes rsp && sp_snaps = rsp_snaps
  && bytes cur = bytes rcur && resumed
  && Mc.Explore.count ?max_states sys = Explore_ref.count ?max_states sys
  && bytes (Mc.Explore.find ?max_states ~goal sys)
     = bytes (Explore_ref.find ?max_states ~goal sys)

let prop_reference_parity =
  QCheck.Test.make ~name:"explore = Hashtbl reference (3 hashes, bounds)"
    ~count:300
    QCheck.(
      quad Test_pexplore.rand_sys_arb small_nat small_nat (pair small_nat small_nat))
    (fun (rs, m, g, (k, every)) ->
      let goal s = s = g mod rs.Test_pexplore.n in
      List.for_all
        (fun (_, hash) ->
          let sys = rehashed hash (Test_pexplore.table_system rs) in
          List.for_all
            (fun max_states ->
              agrees ?max_states ~every:(1 + (every mod 5))
                ~k:(1 + (k mod (rs.Test_pexplore.n + 2)))
                ~goal sys)
            [ None; Some (m mod (rs.Test_pexplore.n + 3)) ])
        hashes)

(* A sparse graph over [0, n): big enough that the index doubles from
   4096 slots several times. *)
let wide n : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0

    let successors s =
      List.filter
        (fun (_, t) -> t < n)
        [ ("a", (2 * s) + 1); ("b", (2 * s) + 2); ("c", ((s * 7) + 3) mod n) ]

    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let test_reference_growth () =
  List.iter
    (fun (name, hash) ->
      (* a constant hash makes every lookup a full scan: keep it small *)
      let n = if name = "constant" then 3000 else 20000 in
      let sys = rehashed hash (wide n) in
      List.iter
        (fun max_states ->
          check Alcotest.bool
            (Printf.sprintf "%s hash, max_states %s" name
               (match max_states with None -> "-" | Some m -> string_of_int m))
            true
            (agrees ?max_states ~every:1000 ~k:(n / 2)
               ~goal:(fun s -> s = n - 1)
               sys))
        [ None; Some (n / 3) ])
    hashes

(* Resuming a parallel engine's cursor: its frontier is sorted by id but
   need not be a suffix of the ids, so the sequential loop must drain it
   before the ids interned after it.  Real 2-domain cursors have such
   frontiers only when a second hardware thread ran; the out-of-order
   cursor below has one on any host — it is a sequential cursor whose
   last frontier state a worker already expanded. *)
let expand_last (type s l) (sys : (s, l) Mc.System.t)
    (c : (s, l) Mc.Explore.cursor) =
  let module S = (val sys) in
  let q = c.Mc.Explore.c_queue in
  let last = q.(Array.length q - 1) in
  let states = ref (List.rev (Array.to_list c.Mc.Explore.c_states)) in
  let depths = ref (List.rev (Array.to_list c.Mc.Explore.c_depths)) in
  let n = ref (Array.length c.Mc.Explore.c_states) in
  let fresh = ref [] and trans = ref c.Mc.Explore.c_trans in
  List.iter
    (fun (l, s') ->
      let j =
        match
          List.find_index (S.equal_state s') (List.rev !states)
        with
        | Some j -> j
        | None ->
            states := s' :: !states;
            depths := (c.Mc.Explore.c_depths.(last) + 1) :: !depths;
            fresh := !n :: !fresh;
            incr n;
            !n - 1
      in
      trans := (last, l, j) :: !trans)
    (S.successors c.Mc.Explore.c_states.(last));
  {
    c with
    Mc.Explore.c_states = Array.of_list (List.rev !states);
    c_depths = Array.of_list (List.rev !depths);
    c_trans = !trans;
    c_queue =
      Array.append (Array.sub q 0 (Array.length q - 1))
        (Array.of_list (List.rev !fresh));
  }

let is_id_suffix (c : _ Mc.Explore.cursor) =
  let n = Array.length c.Mc.Explore.c_states and q = c.Mc.Explore.c_queue in
  let m = Array.length q in
  let rec go i = i = m || (q.(i) = n - m + i && go (i + 1)) in
  go 0

let state_set (sp : (int, string) Mc.Explore.space) =
  List.sort compare (Array.to_list sp.Mc.Explore.states)

let test_resume_parallel_cursor () =
  let sys = wide 3000 in
  let full = state_set (Mc.Explore.space sys) in
  let resume what (c : (int, string) Mc.Explore.cursor) =
    match
      ( Mc.Explore.space_run ~resume:c sys,
        Explore_ref.space_run ~resume:c sys )
    with
    | Mc.Explore.Done sp, Mc.Explore.Done rsp ->
        check Alcotest.bool (what ^ ": state set") true (state_set sp = full);
        check Alcotest.bool (what ^ ": = reference resume") true
          (space_bytes sp = space_bytes rsp)
    | _ -> Alcotest.fail (what ^ ": resume suspended")
  in
  (match Mc.Explore.space_run ~budget:(tripping_budget 700) sys with
  | Mc.Explore.Suspended (_, c) ->
      check Alcotest.bool "sequential frontier is an id suffix" true
        (is_id_suffix c);
      let c' = expand_last sys c in
      check Alcotest.bool "out-of-order frontier is not" false (is_id_suffix c');
      resume "out-of-order cursor" c'
  | Mc.Explore.Done _ -> Alcotest.fail "sequential run did not suspend");
  List.iter
    (fun k ->
      match Mc.Pexplore.space_run ~domains:2 ~budget:(tripping_budget k) sys with
      | Mc.Explore.Suspended (_, c), _ ->
          resume (Printf.sprintf "2-domain cursor after %d polls" k) c
      | Mc.Explore.Done _, _ -> ())
    [ 5; 10; 20 ]

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest prop_reference_parity;
    Alcotest.test_case "reference parity through index growth" `Quick
      test_reference_growth;
    Alcotest.test_case "resume from a parallel-order cursor" `Quick
      test_resume_parallel_cursor;
  ]

let tests = (fst tests, snd tests @ oracle_tests)
