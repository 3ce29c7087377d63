(* The pinned answers every run is checked against, written out by hand
   from the paper and from the repository's documented verdicts.  A
   query whose verdict differs from its pin counts as failed. *)

module H = Heartbeat

(* R1, R2, R3 at the datasets (1,10) (4,10) (5,10) (9,10) (10,10). *)
let table1 =
  [
    (false, true, true);
    (false, true, true);
    (false, true, true);
    (true, true, true);
    (true, false, false);
  ]

let table2 =
  [
    (false, true, true);
    (false, true, true);
    (false, false, true);
    (true, false, true);
    (true, false, false);
  ]

(* Two-phase follows Table 1 except R1 at (9,10): the paper leaves
   p[0]'s inactivation rule open (its footnote 2), and the repository's
   documented choice detects in 2*tmax + tmin. *)
let two_phase =
  [
    (false, true, true);
    (false, true, true);
    (false, true, true);
    (false, true, true);
    (true, false, false);
  ]

let pick (r1, r2, r3) = function
  | H.Requirements.R1 -> r1
  | H.Requirements.R2 -> r2
  | H.Requirements.R3 -> r3

(* Tables 1 and 2, and all-true for the Section 6 fixed versions. *)
let table ~fixed variant (tmin, tmax) req =
  if fixed then true
  else
    let rows =
      match (variant : H.Ta_models.variant) with
      | Binary | Revised | Static -> table1
      | Two_phase -> two_phase
      | Expanding | Dynamic -> table2
    in
    let rec find datasets rows =
      match (datasets, rows) with
      | d :: _, row :: _ when d = (tmin, tmax) -> pick row req
      | _ :: ds, _ :: rs -> find ds rs
      | _ -> invalid_arg "Pins.table: not a paper dataset"
    in
    find H.Params.table_datasets rows

(* Liveness at the race point: R1 holds, R2/R3 fail unfixed; all hold
   fixed. *)
let liveness ~fixed req = fixed || req = H.Requirements.R1

(* The process-algebra verdicts at the partial-order-reduction points
   (static n=2 (2,3), the others n=1 (2,4)), identical with and without
   reduction.  The test suite cross-checks them against the
   timed-automata engine at the same parameters. *)
let pa variant req =
  match (variant : H.Pa_models.variant) with
  | Binary | Revised | Two_phase -> req <> H.Requirements.R1
  | Static -> true
  | Expanding | Dynamic -> req = H.Requirements.R3

(* Fontana-Cleaveland: is the forbidden set unreachable?  FISCHER is
   safe for every process count. *)
let fc_safe = function
  | "fischer" | "csma" | "fddi" | "grc" | "leader" -> true
  | "fischer-broken" -> false
  | name -> invalid_arg ("Pins.fc_safe: unknown model " ^ name)

(* Dynamic n=1, tmin=1, tmax=20: the big-space workload's space. *)
let big_states = 157_295
let big_transitions = 310_763

(* Unfixed R2 and R3 hold there, as at (1,10) in Table 2. *)
let big_holds (_ : H.Requirements.requirement) = true
