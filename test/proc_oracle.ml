(* Reference oracle for the process-algebra step relation: the term
   interpreter Proc.Semantics used before specs were lowered to a
   control-point table, kept verbatim.  It re-walks [Term.t]/[Pexpr.t]
   trees with association-list environments at every step and stores
   states as term trees.  The lowering tests compare its reachable LTS
   with the lowered semantics', byte for byte. *)

open Proc

type component = { proc : Term.t; env : Pexpr.env }
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

let find_def defs name =
  match Hashtbl.find_opt defs name with
  | Some d -> d
  | None -> invalid_arg ("Proc.Semantics: unknown definition " ^ name)

(* Canonical form of a component: unfold top-level definition calls so
   that syntactically different continuations of the same process state
   (e.g. [Call ("X", [])] versus the body of [X]) are identified. *)
let rec normalize defs fuel { proc; env } =
  if fuel <= 0 then raise (Unguarded_recursion "definition unfolding limit");
  match proc with
  | Term.Call (name, args) ->
      let d = find_def defs name in
      let values = List.map (Pexpr.eval env) args in
      normalize defs (fuel - 1)
        { proc = d.Term.body; env = List.combine d.Term.params values }
  | _ -> { proc; env }

(* Local steps of a sequential component: all (action name, data, next
   component) triples it offers. *)
let local_steps defs { proc; env } =
  let find_def name = find_def defs name in
  let acc = ref [] in
  let rec go fuel proc env =
    if fuel <= 0 then raise (Unguarded_recursion "definition unfolding limit");
    match (proc : Term.t) with
    | Term.Nil -> ()
    | Term.Prefix (a, p) ->
        let args = List.map (Pexpr.eval env) a.Term.act_args in
        acc := (a.Term.act_name, args, normalize defs max_unfold { proc = p; env }) :: !acc
    | Term.Choice ps -> List.iter (fun p -> go fuel p env) ps
    | Term.Sum (x, lo, hi, p) ->
        for v = lo to hi do
          go fuel p ((x, Value.Int v) :: env)
        done
    | Term.Cond (c, p, q) ->
        if Pexpr.eval_bool env c then go fuel p env else go fuel q env
    | Term.Call (name, args) ->
        let d = find_def name in
        let values = List.map (Pexpr.eval env) args in
        let env' = List.combine d.Term.params values in
        go (fuel - 1) d.Term.body env'
  in
  go max_unfold proc env;
  List.rev !acc

(* A specification compiled to the lookup tables the step relation
   needs.  Kept abstract so alternative successor functions (the
   partial-order reducer in lib/por) can share the exact step
   construction instead of re-deriving it. *)
type compiled = {
  spec : Spec.t;
  defs : (string, Term.def) Hashtbl.t;
  allow : (string, unit) Hashtbl.t;
  hide : (string, unit) Hashtbl.t;
  (* Communication lookup: action name -> (partner name, result) list, in
     both directions. *)
  comm : (string, string * string) Hashtbl.t;
  initial : state;
}

let compile (spec : Spec.t) : compiled =
  Spec.validate spec;
  let defs = Hashtbl.create 16 in
  List.iter
    (fun (d : Term.def) -> Hashtbl.replace defs d.Term.def_name d)
    spec.Spec.defs;
  let allow = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace allow a ()) spec.Spec.allow;
  let hide = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace hide a ()) spec.Spec.hide;
  let comm = Hashtbl.create 16 in
  List.iter
    (fun (s, r, res) ->
      Hashtbl.add comm s (r, res);
      Hashtbl.add comm r (s, res))
    spec.Spec.comms;
  let initial : state =
    Array.of_list
      (List.map
         (fun (name, values) ->
           let d =
             match Hashtbl.find_opt defs name with
             | Some d -> d
             | None -> invalid_arg ("Proc.Semantics: unknown definition " ^ name)
           in
           { proc = d.Term.body; env = List.combine d.Term.params values })
         spec.Spec.init)
  in
  { spec; defs; allow; hide; comm; initial }

let spec_of c = c.spec
let initial_of c = c.initial
let component_steps c comp = local_steps c.defs comp
let component_term comp = comp.proc
let is_visible c name = Hashtbl.mem c.allow name
let is_hidden c name = Hashtbl.mem c.hide name
let comm_partners c name = Hashtbl.find_all c.comm name
let is_comm c name = Hashtbl.mem c.comm name

(* Successor construction from pre-computed local step menus.  [locals]
   must be [Array.map (component_steps c) s]; exposed so callers that
   already computed the menus (the ample-set reducer) avoid doing it
   twice. *)
let successors_from (c : compiled) (locals : (string * Value.t list * component) list array)
    (s : state) : (label * state) list =
  let n = Array.length s in
  let visible name = Hashtbl.mem c.allow name in
  let hidden name = Hashtbl.mem c.hide name in
  let acc = ref [] in
  let emit label i comp' =
    let s' = Array.copy s in
    s'.(i) <- comp';
    acc := (label, s') :: !acc
  in
  let emit2 label i ci j cj =
    let s' = Array.copy s in
    s'.(i) <- ci;
    s'.(j) <- cj;
    acc := (label, s') :: !acc
  in
  (* Independent (non-communicating) visible or hidden actions. *)
  Array.iteri
    (fun i steps ->
      List.iter
        (fun (name, args, comp') ->
          if name <> Spec.tick_name && not (Hashtbl.mem c.comm name) then begin
            if hidden name then emit tau i comp'
            else if visible name then emit (Act (name, args)) i comp'
            (* otherwise blocked *)
          end)
        steps)
    locals;
  (* Binary communications: for i < j, match any send/recv pair with
     equal data, in either direction. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      List.iter
        (fun (name_i, args_i, ci) ->
          List.iter
            (fun ((partner, result) : string * string) ->
              List.iter
                (fun (name_j, args_j, cj) ->
                  if name_j = partner && args_i = args_j then begin
                    if hidden result then emit2 tau i ci j cj
                    else if visible result then
                      emit2 (Act (result, args_i)) i ci j cj
                  end)
                locals.(j))
            (Hashtbl.find_all c.comm name_i))
        locals.(i)
    done
  done;
  (* Global tick: every component must offer one. *)
  let ticks =
    Array.map
      (fun steps ->
        List.filter_map
          (fun (name, _, comp') ->
            if name = Spec.tick_name then Some comp' else None)
          steps)
      locals
  in
  if Array.for_all (fun l -> l <> []) ticks then begin
    (* Cartesian product over the (usually singleton) tick choices. *)
    let rec expand i chosen =
      if i = n then begin
        let s' = Array.of_list (List.rev chosen) in
        acc := (Tick, s') :: !acc
      end
      else List.iter (fun c -> expand (i + 1) (c :: chosen)) ticks.(i)
    in
    if n = 0 then () else expand 0 []
  end;
  List.rev !acc

let successors_of c s = successors_from c (Array.map (local_steps c.defs) s) s

let pp_state ppf (s : state) =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf c ->
         Term.pp ppf c.proc))
    (Array.to_list s)

let equal_state (a : state) (b : state) = a = b
let hash_state (s : state) = Hashtbl.hash_param 128 256 s

let system_of (c : compiled) : (state, label) Mc.System.t =
  (module struct
    type nonrec state = state
    type nonrec label = label

    let initial = c.initial
    let successors = successors_of c
    let equal_state = equal_state
    let hash_state = hash_state
    let pp_state = pp_state
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
