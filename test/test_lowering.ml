(* Tests for the lowering of PA specs to control points
   (Proc.Semantics.compile): the reachable LTS of every shipped variant
   is pinned by digest, random specs are checked against the term
   interpreter kept in [Proc_oracle], and the interning of control
   points is unit-tested. *)

module T = Proc.Term
module P = Proc.Pexpr
module V = Proc.Value
module Sem = Proc.Semantics
module H = Heartbeat

let check = Alcotest.check

(* Canonical dump of an explored space: state count and initial state,
   then every state's successors in order, labels printed by the
   semantics' own printer; and separately every state as [pp_state]
   prints it. *)
let dumps (type s l) (sys : (s, l) Mc.System.t) ~max_states =
  let module S = (val sys) in
  let space = Mc.Explore.space ~max_states sys in
  let g = space.Mc.Explore.lts in
  let b = Buffer.create 65536 in
  Printf.bprintf b "%d %d\n" (Lts.Graph.num_states g) (Lts.Graph.initial g);
  for s = 0 to Lts.Graph.num_states g - 1 do
    List.iter
      (fun (l, t) -> Printf.bprintf b "%d %s %d\n" s (Format.asprintf "%a" S.pp_label l) t)
      (Lts.Graph.successors g s)
  done;
  let states = Buffer.create 65536 in
  Array.iter
    (fun s -> Buffer.add_string states (Format.asprintf "%a\n" S.pp_state s))
    space.Mc.Explore.states;
  (Buffer.contents b, Buffer.contents states)

let digest s = Digest.to_hex (Digest.string s)

(* --- byte-identity at the benchmark's partial-order points ------------ *)

(* (variant, reduced, states, transitions, LTS digest, state-print
   digest), captured with the term interpreter the lowering replaced. *)
let pinned =
  [
    ("binary", false, 1178, 2770, "cf34fe22b72e1f2c1b25fac3d4df9781", "7a0537c51fad05761f688eecfc4d9bb5");
    ("binary", true, 676, 1277, "0e26bcccef08450f2deec3223721d9b5", "cf2a8252a283095b5008930791d56553");
    ("revised", false, 1197, 2812, "09867b07bf73f939066291bb2b6f5026", "fcc76d24976a2352467be2fe5f5fb66e");
    ("revised", true, 678, 1279, "71e14a1d017d67a3f6ba1bf5dfc94b73", "48d105bf17b8ff7b8178b6613c4b57c9");
    ("two-phase", false, 1178, 2770, "cf34fe22b72e1f2c1b25fac3d4df9781", "f4f4aed6f4e913d8a123763ab01a8799");
    ("two-phase", true, 676, 1277, "0e26bcccef08450f2deec3223721d9b5", "b37e74d7867a0923f9b75ead442d4e37");
    ("static", false, 11713, 37955, "00902477d3eeb17135d521040a572407", "b7e7813e9f42b618f5fb11ec104110ea");
    ("static", true, 5725, 12564, "5134f7c2d3e98ddb430f0eb0747872cf", "d4b23c1f2901357bd9697950ee108051");
    ("expanding", false, 6934, 20732, "3d54b13f598496fb88de771a1b933458", "10448bd66a8c39767707ffa95b78bce7");
    ("expanding", true, 4076, 9238, "a84e8e1259d0d47007b406ddce84cdc8", "3adf3fba25cf961bff73091271f4411f");
    ("dynamic", false, 8416, 25003, "bfaf5415e0a24418254db8946b97a736", "5c9ffadca4f7de793c5bfa6cd1a1dce8");
    ("dynamic", true, 4613, 10664, "0038b8a7f96b76048c0ba308ad0d7818", "7c5035b6b2229c64d6169c32ca72cf19");
  ]

(* The points of the benchmark's pa-por workload: static at n=2
   (tmin=2, tmax=3), the others at n=1 (tmin=2, tmax=4). *)
let por_params v =
  if v = H.Pa_models.Static then H.Params.make ~n:2 ~tmin:2 ~tmax:3 ()
  else H.Params.make ~n:1 ~tmin:2 ~tmax:4 ()

let variants =
  H.Pa_models.[ Binary; Revised; Two_phase; Static; Expanding; Dynamic ]

let test_variant_digests () =
  List.iter
    (fun (name, reduce, states, transitions, lts_digest, states_digest) ->
      let v = List.find (fun v -> H.Pa_models.variant_name v = name) variants in
      let spec = H.Pa_models.build v (por_params v) in
      let sys =
        if reduce then Por.reduced_system (Por.analyze spec) else Sem.system spec
      in
      let lts, printed = dumps sys ~max_states:1_000_000 in
      let what = Printf.sprintf "%s %s" name (if reduce then "reduced" else "full") in
      check Alcotest.(pair int int) (what ^ " counts") (states, transitions)
        (Scanf.sscanf lts "%d" Fun.id, List.length (String.split_on_char '\n' lts) - 2);
      check Alcotest.string (what ^ " LTS digest") lts_digest (digest lts);
      check Alcotest.string (what ^ " state-print digest") states_digest (digest printed))
    pinned

(* --- random specs against the term interpreter ------------------------ *)

let oracle_dumps spec =
  match dumps (Proc_oracle.system spec) ~max_states:20_000 with
  | d -> Ok d
  | exception Proc_oracle.Unguarded_recursion m -> Error m

let lowered_dumps spec =
  match dumps (Sem.system spec) ~max_states:20_000 with
  | d -> Ok d
  | exception Sem.Unguarded_recursion m -> Error m

let same_as_oracle spec = oracle_dumps spec = lowered_dumps spec

(* Two components over data-carrying definitions P(n) and Q(n, m):
   finite sums over [0..1] (some binding [n], shadowing the parameter),
   guards on the parameters, calls with wrapped-around arithmetic, a
   continuation term shared by both definitions, tick, local, hidden
   and communicating actions (one half in two communications), and
   occasionally an unguarded call. *)
let data_spec : Proc.Spec.t QCheck.arbitrary =
  let open QCheck.Gen in
  let wrap e = P.If (P.Lt (e, P.int 3), e, P.int 0) in
  let shared = T.Prefix (T.act "b" [ P.int 1 ], T.call "P" [ P.int 0 ]) in
  let rec term vars depth =
    let var = oneofl vars >|= P.v in
    let expr =
      oneof [ var; int_range 0 2 >|= P.int; (var >|= fun x -> wrap P.(x + int 1)) ]
    in
    let call =
      oneof
        [
          (expr >|= fun e -> T.call "P" [ e ]);
          (pair expr expr >|= fun (a, b) -> T.call "Q" [ a; b ]);
        ]
    in
    let cont =
      if depth <= 0 then call
      else
        frequency
          [ (3, call); (1, return T.Nil); (2, return shared); (2, term vars (depth - 1)) ]
    in
    let prefix =
      oneofl [ "tick"; "a"; "h"; "snd"; "rcv"; "b" ] >>= fun a ->
      (if a = "tick" then return [] else list_size (int_range 0 1) expr) >>= fun args ->
      cont >|= fun k -> T.Prefix (T.act a args, k)
    in
    if depth <= 0 then prefix
    else
      frequency
        [
          (4, prefix);
          (2, list_size (int_range 2 3) (term vars (depth - 1)) >|= T.choice);
          ( 2,
            oneofl [ "x"; "n" ] >>= fun x ->
            term (x :: vars) (depth - 1) >|= fun p -> T.Sum (x, 0, 1, p) );
          ( 2,
            pair (pair var (int_range 0 2))
              (pair (term vars (depth - 1)) (term vars (depth - 1)))
            >|= fun ((x, k), (p, q)) -> T.cond (P.Lt (x, P.int k)) p q );
          (1, call);
        ]
  in
  let spec_gen =
    term [ "n" ] 3 >>= fun p ->
    term [ "n"; "m" ] 3 >>= fun q ->
    return
      {
        Proc.Spec.defs =
          [
            T.def "P" [ "n" ] (T.choice [ p; shared ]);
            T.def "Q" [ "n"; "m" ] (T.choice [ q; shared ]);
          ];
        init = [ ("P", [ V.int 0 ]); ("Q", [ V.int 1; V.int 2 ]) ];
        comms = [ ("snd", "rcv", "c"); ("snd", "b", "d") ];
        allow = [ "a"; "b"; "c"; "d" ];
        hide = [ "h" ];
      }
  in
  QCheck.make
    ~print:(fun spec ->
      String.concat " | "
        (List.map
           (fun (d : T.def) -> d.T.def_name ^ " = " ^ Format.asprintf "%a" T.pp d.T.body)
           spec.Proc.Spec.defs))
    spec_gen

let prop_oracle name arb count =
  QCheck.Test.make ~name ~count arb same_as_oracle

let test_shadow_and_shared () =
  (* a sum binder shadowing a parameter, and one continuation term in
     two definitions *)
  let shared = T.Prefix (T.act "b" [ P.v "n" ], T.call "X" [ P.int 0 ]) in
  let spec =
    {
      Proc.Spec.defs =
        [
          T.def "X" [ "n" ]
            (T.Sum ("n", 0, 1, T.Prefix (T.act "a" [ P.v "n" ], T.call "Y" [ P.v "n" ])));
          T.def "Y" [ "n" ] (T.choice [ T.Prefix (T.act "c" [], shared); shared ]);
          T.def "Z" [ "n" ] (T.Prefix (T.act "d" [], shared));
        ];
      init = [ ("X", [ V.int 5 ]); ("Z", [ V.int 1 ]) ];
      comms = [];
      allow = [ "a"; "b"; "c"; "d" ];
      hide = [];
    }
  in
  check Alcotest.bool "lowered LTS = oracle LTS" true (same_as_oracle spec)

let test_unguarded_parity () =
  let spec =
    {
      Proc.Spec.defs =
        [ T.def "X" [ "n" ] (T.call "Y" [ P.v "n" ]); T.def "Y" [ "n" ] (T.call "X" [ P.v "n" ]) ];
      init = [ ("X", [ V.int 0 ]) ];
      comms = [];
      allow = [];
      hide = [];
    }
  in
  check Alcotest.bool "both raise" true
    (oracle_dumps spec = Error "definition unfolding limit"
    && lowered_dumps spec = Error "definition unfolding limit")

(* --- interning -------------------------------------------------------- *)

let next_points c comp =
  List.map (fun (st : Sem.step) -> Sem.control_point st.Sem.next) (Sem.component_steps c comp)

let test_shared_continuation () =
  (* [b.W] continues both X and Y under the empty layout: one control
     point *)
  let k = T.Prefix (T.act "b" [], T.call "W" []) in
  let spec =
    {
      Proc.Spec.defs =
        [
          T.def "X" [] (T.Prefix (T.act "a" [], k));
          T.def "Y" [] (T.Prefix (T.act "c" [], k));
          T.def "W" [] (T.Prefix (T.act "tick" [], T.call "W" []));
        ];
      init = [ ("X", []); ("Y", []) ];
      comms = [];
      allow = [ "a"; "b"; "c" ];
      hide = [];
    }
  in
  let c = Sem.compile spec in
  let init = Sem.initial_of c in
  let kx = next_points c init.(0) and ky = next_points c init.(1) in
  check Alcotest.(list int) "same control point" kx ky;
  (* X, Y, W bodies and the shared continuation *)
  check Alcotest.int "four control points" 4 (Sem.num_control_points c)

let test_layouts_split () =
  (* the same term [b.W] under X's layout [n] and under Y's empty one:
     two control points *)
  let k = T.Prefix (T.act "b" [], T.call "W" []) in
  let spec =
    {
      Proc.Spec.defs =
        [
          T.def "X" [ "n" ] (T.Prefix (T.act "a" [], k));
          T.def "Y" [] (T.Prefix (T.act "c" [], k));
          T.def "W" [] (T.Prefix (T.act "tick" [], T.call "W" []));
        ];
      init = [ ("X", [ V.int 0 ]); ("Y", []) ];
      comms = [];
      allow = [ "a"; "b"; "c" ];
      hide = [];
    }
  in
  let c = Sem.compile spec in
  let init = Sem.initial_of c in
  let kx = next_points c init.(0) and ky = next_points c init.(1) in
  check Alcotest.bool "different control points" true (kx <> ky);
  check Alcotest.int "five control points" 5 (Sem.num_control_points c)

let tests =
  ( "lowering",
    [
      Alcotest.test_case "variant LTS digests match the interpreter" `Slow
        test_variant_digests;
      Alcotest.test_case "shadowing sum and shared continuation" `Quick
        test_shadow_and_shared;
      Alcotest.test_case "unguarded recursion raised by both" `Quick
        test_unguarded_parity;
      Alcotest.test_case "shared continuation is one control point" `Quick
        test_shared_continuation;
      Alcotest.test_case "equal term under two layouts is two points" `Quick
        test_layouts_split;
      QCheck_alcotest.to_alcotest
        (prop_oracle "lowered = interpreter on proc random specs" Test_proc.random_spec 200);
      QCheck_alcotest.to_alcotest
        (prop_oracle "lowered = interpreter on por random specs" Test_por.random_spec 200);
      QCheck_alcotest.to_alcotest
        (prop_oracle "lowered = interpreter on data-carrying specs" data_spec 300);
    ] )
