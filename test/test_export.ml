(* Tests for the UPPAAL (.xta) and mCRL2 exporters. *)

let check = Alcotest.check
module H = Heartbeat

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let params = H.Params.make ~tmin:1 ~tmax:2 ()

let test_xta_structure () =
  let s = Ta.Xta.to_string (H.Ta_models.build H.Ta_models.Binary params) in
  List.iter
    (fun needle ->
      check Alcotest.bool ("contains " ^ needle) true (contains s needle))
    [
      "int t = 2;";
      "clock w0;";
      "broadcast chan snd0;";
      "chan snd1_1;";
      "process P0() {";
      "Alive { w0 <= t }";
      "urgent TimeOut;";
      "init Alive;";
      "guard w0 == t;";
      "sync snd0!;";
      "sync dlv1_1?;";
      "system P0, P1, Ch0_1, Ch1_1;";
    ]

let test_xta_min_operator () =
  (* static with two participants uses min over the waiting times, which
     must come out as UPPAAL's <? operator *)
  let p2 = H.Params.make ~n:2 ~tmin:1 ~tmax:2 () in
  let s = Ta.Xta.to_string (H.Ta_models.build H.Ta_models.Static p2) in
  check Alcotest.bool "min exported as <?" true (contains s "<?")

let test_xta_arrays_and_monitors () =
  let s =
    Ta.Xta.to_string
      (H.Ta_models.build ~with_r1_monitors:true H.Ta_models.Binary params)
  in
  check Alcotest.bool "monitor process" true (contains s "process M1() {");
  check Alcotest.bool "error location" true (contains s "Error")

let test_mcrl2_structure () =
  let s = Proc.Mcrl2.to_string (H.Pa_models.build H.Pa_models.Binary params) in
  List.iter
    (fun needle ->
      check Alcotest.bool ("contains " ^ needle) true (contains s needle))
    [
      "act s_arm: Int;";
      "proc P0(active: Bool, t: Int, rcvd1: Bool, tm1: Int) =";
      "proc SW0Armed(c: Int, lim: Int) =";
      "sum x: Int . (1 <= x && x <= 2) -> r_arm(x)";
      "init";
      "allow({tick|tick";
      "comm({";
      "s_beat0|r_beat0 -> beat0";
      "P0(true, 2, true, 2)";
    ]

let test_mcrl2_sort_inference () =
  (* The dynamic protocol's p0 has a gone flag seeded from the init
     values; inference must type it Bool. *)
  let s = Proc.Mcrl2.to_string (H.Pa_models.build H.Pa_models.Dynamic params) in
  check Alcotest.bool "gone is Bool" true (contains s "gone1: Bool");
  check Alcotest.bool "jnd is Bool" true (contains s "jnd1: Bool")

let test_exports_for_all_variants () =
  (* Exports are total: every variant produces a non-trivial document. *)
  List.iter
    (fun v ->
      let xta = Ta.Xta.to_string (H.Ta_models.build v params) in
      check Alcotest.bool
        (H.Ta_models.variant_name v ^ " xta")
        true
        (String.length xta > 200);
      match H.Pa_models.of_ta v with
      | Some pv ->
          let m = Proc.Mcrl2.to_string (H.Pa_models.build pv params) in
          check Alcotest.bool
            (H.Ta_models.variant_name v ^ " mcrl2")
            true
            (String.length m > 200)
      | None -> ())
    H.Ta_models.all_variants

(* --- the .xta parser ------------------------------------------------ *)

let test_xta_roundtrip_variants () =
  (* print -> parse -> print is the identity on every shipped model *)
  List.iter
    (fun v ->
      let m = H.Ta_models.build ~with_r1_monitors:true v params in
      let s = Ta.Xta.to_string m in
      check Alcotest.string
        (H.Ta_models.variant_name v ^ " round-trips")
        s
        (Ta.Xta.to_string (Ta.Xta.parse s)))
    H.Ta_models.all_variants

let fischer_like =
  "// strict guards, urgent states, broadcast - the FC extensions\n\
   int id = 0;\n\
   clock x;\n\
   broadcast chan go;\n\
   process P() {\n\
  \  state\n\
  \    Idle,\n\
  \    Try { x <= 3 },\n\
  \    Wait,\n\
  \    CS;\n\
  \  urgent Idle;\n\
  \  init Idle;\n\
  \  trans\n\
  \    Idle -> Try { guard id == 0; assign x = 0; },\n\
  \    Try -> Wait { guard x < 3; sync go!; assign id = 1, x = 0; },\n\
  \    Wait -> CS { guard x > 3 && id == 1; },\n\
  \    CS -> Idle { assign id = 0; };\n\
   }\n\
   system P;\n"

let test_xta_parse_strict () =
  let m = Ta.Xta.parse fischer_like in
  let a = List.hd m.Ta.Model.automata in
  check Alcotest.int "locations" 4 (List.length a.Ta.Model.locations);
  check Alcotest.int "edges" 4 (List.length a.Ta.Model.edges);
  let wait_cs = List.nth a.Ta.Model.edges 2 in
  (match wait_cs.Ta.Model.guard with
  | Ta.Expr.And
      ( Ta.Expr.Cmp (Ta.Expr.Gt, Ta.Expr.Clock "x", Ta.Expr.Int 3),
        Ta.Expr.Cmp (Ta.Expr.Eq, Ta.Expr.Var "id", Ta.Expr.Int 1) ) ->
      ()
  | _ -> Alcotest.fail "strict > guard not parsed as written");
  (* the urgent marker survived *)
  let idle = List.hd a.Ta.Model.locations in
  check Alcotest.bool "Idle urgent" true (idle.Ta.Model.kind = Ta.Model.Urgent);
  (* caps are inferred past every literal *)
  let c = List.hd m.Ta.Model.clocks in
  check Alcotest.bool "cap exceeds literals" true (c.Ta.Model.cap > 3);
  (* and the parse is stable under one more round trip *)
  let s = Ta.Xta.to_string m in
  check Alcotest.string "fixpoint" s (Ta.Xta.to_string (Ta.Xta.parse s))

let test_xta_parse_errors () =
  List.iter
    (fun (src, fragment) ->
      try
        ignore (Ta.Xta.parse src : Ta.Model.t);
        Alcotest.failf "accepted %S" src
      with Ta.Xta.Parse_error msg ->
        check Alcotest.bool
          (Printf.sprintf "%S mentions %S" msg fragment)
          true
          (contains msg fragment))
    [
      ("clock x\nsystem P;", "expected \";\"");
      ("process P() { state A; init A; }\nsystem Q;", "undeclared process Q");
      ("int a[2] = { 1 };\nsystem P;", "2 elements but initialises 1");
      ("clock x;\nprocess P() { state A; init A;\n  trans A -> A { assign x = 5; }; }\nsystem P;",
       "only be reset to 0");
      ("@", "unexpected character");
      ("clock x;\n\nint n = 99999999999999999999;\nsystem P;",
       "line 3: integer literal 99999999999999999999 out of range");
    ]

let tests =
  ( "export",
    [
      Alcotest.test_case "xta structure" `Quick test_xta_structure;
      Alcotest.test_case "xta min operator" `Quick test_xta_min_operator;
      Alcotest.test_case "xta monitors" `Quick test_xta_arrays_and_monitors;
      Alcotest.test_case "mcrl2 structure" `Quick test_mcrl2_structure;
      Alcotest.test_case "mcrl2 sort inference" `Quick test_mcrl2_sort_inference;
      Alcotest.test_case "exports are total" `Quick test_exports_for_all_variants;
      Alcotest.test_case "xta parse round-trips" `Quick
        test_xta_roundtrip_variants;
      Alcotest.test_case "xta strict comparisons" `Quick test_xta_parse_strict;
      Alcotest.test_case "xta parse errors" `Quick test_xta_parse_errors;
    ] )
