(* Operational semantics of parallel specifications on a lowered form.

   [compile] walks every definition body once and lowers it to a table
   of control points, the counterpart of mCRL2's linear process: a
   control point is a (normalised term, environment layout) pair, and
   its code is the term's summand tree with variables resolved to
   slots, action names resolved to ints and calls resolved to
   definition indices.  A component is a control point plus the values
   of its layout's variables, so the step relation evaluates closures
   over a flat array and states hash and compare as ints and arrays. *)

type component = { cp : int; env : Value.t array; hash : int }
type state = component array

type label = Tick | Act of string * Value.t list

let tau = Act ("tau", [])

let label_name = function Tick -> "tick" | Act (name, _) -> name

let pp_label ppf = function
  | Tick -> Format.pp_print_string ppf "tick"
  | Act (name, []) -> Format.pp_print_string ppf name
  | Act (name, args) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        args

exception Unguarded_recursion of string

(* Maximum number of Call unfoldings along one step derivation; guarded
   specifications never get anywhere near this. *)
let max_unfold = 10_000

let unguarded () = raise (Unguarded_recursion "definition unfolding limit")

(* --- lowered form ------------------------------------------------------ *)

(* An expression compiled against an environment layout: variables are
   slot reads. *)
type expr = Value.t array -> Value.t

type next =
  | Stay of int  (** continuation control point; the environment carries over *)
  | Enter of int * expr array
      (** call of a definition (by index): its parameters get the
          evaluated arguments, and further top-level calls unfold *)

(* The summand tree of a control point, in the term's syntactic order:
   choices, finite sums (each value pushes a slot in front) and
   conditions lead to the action prefixes. *)
type code =
  | Stop
  | Emit of int * expr list * next  (** action id, arguments, continuation *)
  | Alt of code array
  | Sum of Value.t array * code
  | If of expr * code * code
  | Jump of int * expr array  (** unguarded call: run the callee's code *)

(* What a local action or a communication result turns into. *)
type out = Skip | Hide | Show

type step = { act : int; args : Value.t list; next : component }

(* A memoised step menu: [component_steps] is a pure function of the
   component, and a successor shares all but one or two components
   with its source. *)
type memo = { key : component; steps : step list }

type compiled = {
  names : string array;  (* action id -> name; id 0 is tick *)
  local : out array;  (* action id -> label of an independent step *)
  result : out array;  (* action id -> label as a communication result *)
  partners : (int * int) array array;
      (* action id -> (partner, result) for each communication the
         action is a half of, most recently declared first *)
  partner_bits : int array;  (* action id -> [bit]s of its partners *)
  terms : Term.t array;  (* control point -> its term, for printing *)
  codes : code array;  (* control point -> summand tree *)
  def_cp : int array;  (* definition -> control point of its body *)
  def_call : (int * expr array) option array;
      (* definition whose body is a call -> callee and arguments *)
  initial : state;
  mutable memo : memo array;
      (* direct-mapped by component hash, allocated on first use; slots
         are written racily by parallel explorers, which is harmless
         since every entry is immutable and correct *)
}

let tick = 0

(* Actions as bits of an int, modulo the word size: a superset test
   that lets the pairing loops skip components that cannot match. *)
let bit a = 1 lsl (a mod 63)

let component cp env =
  let h = ref (cp + 1) in
  for i = 0 to Array.length env - 1 do
    h := Value.hash_fold !h (Array.unsafe_get env i)
  done;
  { cp; env; hash = !h }

(* Expressions are lowered to closures with the same operand shapes as
   [Pexpr.eval], so they fail with the same exceptions. *)
let rec lower_expr (vars : string list) (e : Pexpr.t) : expr =
  let i = Value.to_int and b = Value.to_bool in
  match e with
  | Pexpr.Const v -> fun _ -> v
  | Pexpr.Var x ->
      let rec slot k = function
        | [] -> -1
        | y :: rest -> if String.equal x y then k else slot (k + 1) rest
      in
      let k = slot 0 vars in
      if k >= 0 then fun env -> env.(k)
      else fun _ -> invalid_arg ("Proc.Pexpr.eval: unbound variable " ^ x)
  | Pexpr.Add (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Int (i (l env) + i (r env))
  | Pexpr.Sub (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Int (i (l env) - i (r env))
  | Pexpr.Mul (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Int (i (l env) * i (r env))
  | Pexpr.Div (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Int (i (l env) / i (r env))
  | Pexpr.Eq (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Bool (Value.equal (l env) (r env))
  | Pexpr.Lt (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Bool (i (l env) < i (r env))
  | Pexpr.Le (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Bool (i (l env) <= i (r env))
  | Pexpr.And (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Bool (b (l env) && b (r env))
  | Pexpr.Or (l, r) ->
      let l = lower_expr vars l and r = lower_expr vars r in
      fun env -> Value.Bool (b (l env) || b (r env))
  | Pexpr.Not a ->
      let a = lower_expr vars a in
      fun env -> Value.Bool (not (b (a env)))
  | Pexpr.If (c, l, r) ->
      let c = lower_expr vars c and l = lower_expr vars l and r = lower_expr vars r in
      fun env -> if b (c env) then l env else r env
  | Pexpr.Nth (l, n) ->
      let l = lower_expr vars l and n = lower_expr vars n in
      fun env -> (
        let l = Value.to_list (l env) and n = i (n env) in
        match List.nth_opt l n with
        | Some v -> v
        | None -> invalid_arg "Proc.Pexpr.eval: list index out of bounds")
  | Pexpr.Set_nth (l, n, x) ->
      let l = lower_expr vars l and n = lower_expr vars n and x = lower_expr vars x in
      fun env ->
        let l = Value.to_list (l env) and n = i (n env) in
        let x = x env in
        if n < 0 || n >= List.length l then
          invalid_arg "Proc.Pexpr.eval: list index out of bounds";
        Value.List (List.mapi (fun j y -> if j = n then x else y) l)
  | Pexpr.Min_list l -> (
      let l = lower_expr vars l in
      fun env ->
        match List.map i (Value.to_list (l env)) with
        | [] -> invalid_arg "Proc.Pexpr.eval: minimum of empty list"
        | x :: rest -> Value.Int (List.fold_left min x rest))
  | Pexpr.Len l ->
      let l = lower_expr vars l in
      fun env -> Value.Int (List.length (Value.to_list (l env)))
  | Pexpr.Repl (n, x) ->
      let n = lower_expr vars n and x = lower_expr vars x in
      fun env ->
        let n = i (n env) and x = x env in
        if n < 0 then invalid_arg "Proc.Pexpr.eval: negative replication";
        Value.List (List.init n (fun _ -> x))

(* Full-depth structural hash of an expression (see [Value.hash_fold]). *)
let rec hash_expr h (e : Pexpr.t) =
  let c = Value.combine in
  match e with
  | Pexpr.Const v -> Value.hash_fold (c h 1) v
  | Pexpr.Var x -> c (c h 2) (Hashtbl.hash x)
  | Pexpr.Add (a, b) -> hash_expr (hash_expr (c h 3) a) b
  | Pexpr.Sub (a, b) -> hash_expr (hash_expr (c h 4) a) b
  | Pexpr.Mul (a, b) -> hash_expr (hash_expr (c h 5) a) b
  | Pexpr.Div (a, b) -> hash_expr (hash_expr (c h 6) a) b
  | Pexpr.Eq (a, b) -> hash_expr (hash_expr (c h 7) a) b
  | Pexpr.Lt (a, b) -> hash_expr (hash_expr (c h 8) a) b
  | Pexpr.Le (a, b) -> hash_expr (hash_expr (c h 9) a) b
  | Pexpr.And (a, b) -> hash_expr (hash_expr (c h 10) a) b
  | Pexpr.Or (a, b) -> hash_expr (hash_expr (c h 11) a) b
  | Pexpr.Not a -> hash_expr (c h 12) a
  | Pexpr.If (x, a, b) -> hash_expr (hash_expr (hash_expr (c h 13) x) a) b
  | Pexpr.Nth (a, b) -> hash_expr (hash_expr (c h 14) a) b
  | Pexpr.Set_nth (x, a, b) -> hash_expr (hash_expr (hash_expr (c h 15) x) a) b
  | Pexpr.Min_list a -> hash_expr (c h 16) a
  | Pexpr.Len a -> hash_expr (c h 17) a
  | Pexpr.Repl (a, b) -> hash_expr (hash_expr (c h 18) a) b

(* Interning key of a control point: a term with the full-depth hash
   of its structure (folded bottom-up from its children's, see [walk])
   and the id of its environment layout. *)
type point_key = { term : Term.t; shape : int; layout : int }

module Points = Hashtbl.Make (struct
  type t = point_key

  let equal a b =
    a.shape = b.shape && a.layout = b.layout && (a.term == b.term || a.term = b.term)

  let hash k = Value.combine k.shape k.layout land max_int
end)

let compile (spec : Spec.t) : compiled =
  Spec.validate spec;
  let ids = Hashtbl.create 64 in
  let names = ref [] in
  let act_id name =
    match Hashtbl.find ids name with
    | a -> a
    | exception Not_found ->
        let a = Hashtbl.length ids in
        Hashtbl.add ids name a;
        names := name :: !names;
        a
  in
  ignore (act_id Spec.tick_name);
  List.iter
    (fun (s, r, res) -> List.iter (fun a -> ignore (act_id a)) [ s; r; res ])
    spec.Spec.comms;
  List.iter (fun a -> ignore (act_id a)) spec.Spec.allow;
  List.iter (fun a -> ignore (act_id a)) spec.Spec.hide;
  let defs = Array.of_list spec.Spec.defs in
  let def_index = Hashtbl.create 16 in
  Array.iteri (fun k (d : Term.def) -> Hashtbl.replace def_index d.Term.def_name k) defs;
  let def_of name = Hashtbl.find def_index name in
  (* Layouts, hash-consed as (innermost variable, enclosing layout);
     layout 0 is the empty one. *)
  let layouts = Hashtbl.create 16 in
  let push x (id, vars) =
    let vars = x :: vars in
    match Hashtbl.find_opt layouts (x, id) with
    | Some id -> (id, vars)
    | None ->
        let id' = Hashtbl.length layouts + 1 in
        Hashtbl.add layouts (x, id) id';
        (id', vars)
  in
  let points = Points.create 64 in
  let terms = ref [] and codes = ref [] in
  let point shape ((layout, _) : int * string list) term code =
    let key = { term; shape; layout } in
    match Points.find_opt points key with
    | Some cp -> cp
    | None ->
        let cp = Points.length points in
        Points.add points key cp;
        terms := term :: !terms;
        codes := code :: !codes;
        cp
  in
  let lower_args ((_, vars) : int * string list) es = List.map (lower_expr vars) es in
  let call_args layout es = Array.of_list (lower_args layout es) in
  (* One bottom-up pass: the shape hash of each node, its code under
     [layout], and a control point for every prefix continuation that
     is not a call (calls continue at the callee's control point). *)
  let c = Value.combine in
  let rec walk layout (t : Term.t) : int * code =
    match t with
    | Term.Nil -> (1, Stop)
    | Term.Prefix (a, p) ->
        let act = act_id a.Term.act_name in
        let shape, next =
          match p with
          | Term.Call (name, es) ->
              let k = def_of name in
              (List.fold_left hash_expr (c 6 k) es, Enter (k, call_args layout es))
          | _ ->
              let shape, code = walk layout p in
              (shape, Stay (point shape layout p code))
        in
        ( c (List.fold_left hash_expr (c 2 act) a.Term.act_args) shape,
          Emit (act, lower_args layout a.Term.act_args, next) )
    | Term.Choice ps ->
        let lowered = List.map (walk layout) ps in
        ( List.fold_left (fun h (s, _) -> c h s) 3 lowered,
          Alt (Array.of_list (List.map snd lowered)) )
    | Term.Sum (x, lo, hi, p) ->
        let shape, code = walk (push x layout) p in
        ( c (c (c (c 4 (Hashtbl.hash x)) lo) hi) shape,
          Sum (Array.init (hi - lo + 1) (fun i -> Value.Int (lo + i)), code) )
    | Term.Cond (e, p, q) ->
        let ps, pc = walk layout p in
        let qs, qc = walk layout q in
        (c (c (hash_expr 5 e) ps) qs, If (lower_expr (snd layout) e, pc, qc))
    | Term.Call (name, es) ->
        let k = def_of name in
        (List.fold_left hash_expr (c 6 k) es, Jump (k, call_args layout es))
  in
  let params (d : Term.def) = List.fold_right push d.Term.params (0, []) in
  let def_cp =
    Array.map
      (fun (d : Term.def) ->
        let layout = params d in
        let shape, code = walk layout d.Term.body in
        point shape layout d.Term.body code)
      defs
  in
  let def_call =
    Array.map
      (fun (d : Term.def) ->
        match d.Term.body with
        | Term.Call (name, es) -> Some (def_of name, call_args (params d) es)
        | _ -> None)
      defs
  in
  let nact = Hashtbl.length ids in
  let flags l =
    let a = Array.make nact false in
    List.iter (fun n -> a.(Hashtbl.find ids n) <- true) l;
    a
  in
  let visible = flags spec.Spec.allow and hidden = flags spec.Spec.hide in
  let partners = Array.make nact [] in
  List.iter
    (fun (s, r, res) ->
      let s = Hashtbl.find ids s and r = Hashtbl.find ids r in
      let res = Hashtbl.find ids res in
      partners.(s) <- (r, res) :: partners.(s);
      partners.(r) <- (s, res) :: partners.(r))
    spec.Spec.comms;
  let result =
    Array.init nact (fun a -> if hidden.(a) then Hide else if visible.(a) then Show else Skip)
  in
  let local =
    Array.init nact (fun a -> if a = tick || partners.(a) <> [] then Skip else result.(a))
  in
  let initial =
    Array.of_list
      (List.map
         (fun (name, values) -> component def_cp.(def_of name) (Array.of_list values))
         spec.Spec.init)
  in
  {
    names = Array.of_list (List.rev !names);
    local;
    result;
    partners = Array.map Array.of_list partners;
    partner_bits = Array.map (List.fold_left (fun m (p, _) -> m lor bit p) 0) partners;
    terms = Array.of_list (List.rev !terms);
    codes = Array.of_list (List.rev !codes);
    def_cp;
    def_call;
    initial;
    memo = [||];
  }

let initial_of c = c.initial
let num_actions c = Array.length c.names
let comm_partner_ids c a = c.partners.(a)

let num_control_points c = Array.length c.codes
let control_point comp = comp.cp

let control_offers c cp =
  let rec go acc = function
    | Stop -> acc
    | Emit (a, _, _) -> a :: acc
    | Alt cs -> Array.fold_left go acc cs
    | Sum (_, p) -> go acc p
    | If (_, p, q) -> go (go acc p) q
    | Jump _ -> acc
  in
  List.rev (go [] c.codes.(cp))

let control_successors c cp =
  let rec go acc = function
    | Stop -> acc
    | Emit (_, _, Stay p) -> p :: acc
    | Emit (_, _, Enter (k, _)) | Jump (k, _) -> c.def_cp.(k) :: acc
    | Alt cs -> Array.fold_left go acc cs
    | Sum (_, p) -> go acc p
    | If (_, p, q) -> go (go acc p) q
  in
  List.rev (go [] c.codes.(cp))

(* --- step relation ----------------------------------------------------- *)

let eval_array es env = Array.map (fun e -> e env) es

(* Continuation of a call: enter the callee, unfolding calls at the top
   of its body (the normalisation that identifies [Call ("X", ..)] with
   the body of [X]). *)
let rec settle c fuel k env =
  if fuel <= 0 then unguarded ();
  match c.def_call.(k) with
  | None -> component c.def_cp.(k) env
  | Some (k', es) -> settle c (fuel - 1) k' (eval_array es env)

let push v env =
  let n = Array.length env in
  let a = Array.make (n + 1) v in
  Array.blit env 0 a 1 n;
  a

let equal_component a b =
  a == b
  || a.hash = b.hash && a.cp = b.cp
     && (a.env == b.env
        || Array.length a.env = Array.length b.env
           &&
           let rec go i = i < 0 || (Value.equal a.env.(i) b.env.(i) && go (i - 1)) in
           go (Array.length a.env - 1))

(* Local steps of a sequential component: all (action, data, next
   component) triples it offers, in syntactic order. *)
let steps_of c { cp; env; _ } =
  let acc = ref [] in
  let rec run fuel code env =
    match code with
    | Stop -> ()
    | Emit (act, es, next) ->
        let args = List.map (fun e -> e env) es in
        let next =
          match next with
          | Stay cp -> component cp env
          | Enter (k, es) -> settle c (max_unfold - 1) k (eval_array es env)
        in
        acc := { act; args; next } :: !acc
    | Alt cs -> Array.iter (fun code -> run fuel code env) cs
    | Sum (vs, p) -> Array.iter (fun v -> run fuel p (push v env)) vs
    | If (g, p, q) -> if Value.to_bool (g env) then run fuel p env else run fuel q env
    | Jump (k, es) ->
        let env' = eval_array es env in
        if fuel - 1 <= 0 then unguarded ();
        run (fuel - 1) c.codes.(c.def_cp.(k)) env'
  in
  run max_unfold c.codes.(cp) env;
  List.rev !acc

let memo_slots = 1024

let component_steps c comp =
  let memo =
    match c.memo with
    | [||] ->
        let none = { cp = -1; env = [||]; hash = 0 } in
        let m = Array.make memo_slots { key = none; steps = [] } in
        c.memo <- m;
        m
    | m -> m
  in
  let slot = Hashtbl.hash comp.hash land (memo_slots - 1) in
  let e = Array.unsafe_get memo slot in
  if equal_component e.key comp then e.steps
  else begin
    let steps = steps_of c comp in
    Array.unsafe_set memo slot { key = comp; steps };
    steps
  end

let set1 s i ci =
  let s' = Array.copy s in
  s'.(i) <- ci;
  s'

let set2 s i ci j cj =
  let s' = Array.copy s in
  s'.(i) <- ci;
  s'.(j) <- cj;
  s'

(* The transitions below are consed onto [acc] in emission order; the
   helpers are top-level functions so the hot loops allocate nothing
   but the transitions themselves. *)

(* Independent steps of component [i]: visible or hidden actions that
   are neither tick nor a communication half. *)
let rec independent c s i acc = function
  | [] -> acc
  | st :: rest ->
      let acc =
        match c.local.(st.act) with
        | Skip -> acc
        | Hide -> (tau, set1 s i st.next) :: acc
        | Show -> (Act (c.names.(st.act), st.args), set1 s i st.next) :: acc
      in
      independent c s i acc rest

(* Handshakes of step [si] of component [i] with the steps of component
   [j] offering [partner] with equal data. *)
let rec handshakes c s i si j partner res acc = function
  | [] -> acc
  | sj :: rest ->
      let acc =
        if sj.act <> partner || not (Value.equal_list si.args sj.args) then acc
        else
          match c.result.(res) with
          | Skip -> acc
          | Hide -> (tau, set2 s i si.next j sj.next) :: acc
          | Show -> (Act (c.names.(res), si.args), set2 s i si.next j sj.next) :: acc
      in
      handshakes c s i si j partner res acc rest

let rec communications c s i j offered lj acc = function
  | [] -> acc
  | si :: rest ->
      let ps = c.partners.(si.act) in
      let acc = ref acc in
      for k = 0 to Array.length ps - 1 do
        let partner, res = ps.(k) in
        if offered land bit partner <> 0 then
          acc := handshakes c s i si j partner res !acc lj
      done;
      communications c s i j offered lj !acc rest

let rec scan c offered wants j = function
  | [] -> ()
  | st :: rest ->
      offered.(j) <- offered.(j) lor bit st.act;
      wants.(j) <- wants.(j) lor c.partner_bits.(st.act);
      scan c offered wants j rest

let is_tick st = st.act = tick

(* Successor construction from pre-computed local step menus.  [locals]
   must be [Array.map (component_steps c) s]; exposed so callers that
   already computed the menus (the ample-set reducer) avoid doing it
   twice. *)
let successors_from ?within (c : compiled) (locals : step list array) (s : state) :
    (label * state) list =
  let n = Array.length s in
  let member i = match within with None -> true | Some g -> g.(i) in
  let acc = ref [] in
  (* Independent (non-communicating) visible or hidden actions. *)
  for i = 0 to n - 1 do
    if member i then acc := independent c s i !acc locals.(i)
  done;
  (* Binary communications: for i < j, match any send/recv pair with
     equal data, in either direction.  [offered.(j)] and [wants.(j)]
     over-approximate the actions component j offers and the partners
     its communication halves need. *)
  let offered = Array.make n 0 and wants = Array.make n 0 in
  for j = 0 to n - 1 do
    if member j then scan c offered wants j locals.(j)
  done;
  for i = 0 to n - 1 do
    if wants.(i) <> 0 && member i then
      for j = i + 1 to n - 1 do
        if wants.(i) land offered.(j) <> 0 && member j then
          acc := communications c s i j offered.(j) locals.(j) !acc locals.(i)
      done
  done;
  (* Global tick: every component must offer one. *)
  if within = None && n > 0 && Array.for_all (List.exists is_tick) locals then begin
    let ticks =
      Array.map
        (List.filter_map (fun st -> if is_tick st then Some st.next else None))
        locals
    in
    (* Cartesian product over the (usually singleton) tick choices. *)
    let rec expand i chosen =
      if i = n then begin
        let s' = Array.of_list (List.rev chosen) in
        acc := (Tick, s') :: !acc
      end
      else List.iter (fun c -> expand (i + 1) (c :: chosen)) ticks.(i)
    in
    expand 0 []
  end;
  List.rev !acc

let successors_of c s = successors_from c (Array.map (component_steps c) s) s

let pp_state c ppf (s : state) =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf comp ->
         Term.pp ppf c.terms.(comp.cp)))
    (Array.to_list s)

let equal_state (a : state) (b : state) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (equal_component a.(i) b.(i) && go (i - 1)) in
     go (Array.length a - 1)

(* Components carry their own hash, so a successor, which shares all
   but one or two components with its source, costs one combine per
   component. *)
let hash_state (s : state) =
  let h = ref (Array.length s) in
  for i = 0 to Array.length s - 1 do
    h := Value.combine !h (Array.unsafe_get s i).hash
  done;
  let h = !h lxor (!h lsr 29) in
  let h = h * 0x1f51afd7ed558ccd in
  (h lxor (h lsr 32)) land max_int

let system_of (c : compiled) : (state, label) Mc.System.t =
  (module struct
    type nonrec state = state
    type nonrec label = label

    let initial = c.initial
    let successors = successors_of c
    let equal_state = equal_state
    let hash_state = hash_state
    let pp_state = pp_state c
    let pp_label = pp_label
  end)

let system (spec : Spec.t) : (state, label) Mc.System.t = system_of (compile spec)

let lts ?max_states ?(domains = 1) spec =
  let sys = system spec in
  let space =
    if domains <= 1 then Mc.Explore.space ?max_states sys
    else Mc.Pexplore.space ?max_states ~domains sys
  in
  if not space.Mc.Explore.complete then
    failwith "Proc.Semantics.lts: state bound exceeded";
  space.Mc.Explore.lts
