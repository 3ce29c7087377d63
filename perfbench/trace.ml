(* Layer timing from outside the library.

   The traced run hands each explorer a wrapped [Mc.System.t]: the
   wrapper times every [successors], [hash_state] and [equal_state]
   call of the semantics behind it, and [pred]/[monitor] time the
   property predicates.  Calls are attributed to the engine span open
   at the time (sequential explorer, parallel explorer, LTL checker,
   zone explorer), so an engine's self time is its span minus the
   wrapped calls made under it.

   Worker domains of the parallel explorer record into domain-local
   accumulators (registered once per domain, summed after the join),
   so the 2-domain queries need no locking on the hot path.  Spans are
   opened and closed only on the main domain and kept in memory until
   the run ends. *)

type engine = Other | Explore | Pexplore | Resume | Ltl | Zone
type sem = Ta | Proc | Por | Pred
type op = Succ | Hash | Equal

let engine_index = function
  | Other -> 0
  | Explore -> 1
  | Pexplore -> 2
  | Resume -> 3
  | Ltl -> 4
  | Zone -> 5

let sem_index = function Ta -> 0 | Proc -> 1 | Por -> 2 | Pred -> 3
let op_index = function Succ -> 0 | Hash -> 1 | Equal -> 2
let slots = 6 * 4 * 3
let slot e s o = (((engine_index e * 4) + sem_index s) * 3) + op_index o

(* Wrapped-call totals: calls, nanoseconds, and successor edges. *)
type acc = { calls : int array; ns : int array; edges : int array }

let new_acc () =
  {
    calls = Array.make slots 0;
    ns = Array.make slots 0;
    edges = Array.make slots 0;
  }

let registry = ref []
let registry_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = new_acc () in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

(* Written by the main domain before an engine starts its workers. *)
let current = Atomic.make Other
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let record sem op t0 edges =
  let t1 = now_ns () in
  let a = Domain.DLS.get acc_key in
  let i = slot (Atomic.get current) sem op in
  a.calls.(i) <- a.calls.(i) + 1;
  a.ns.(i) <- a.ns.(i) + (t1 - t0);
  a.edges.(i) <- a.edges.(i) + edges

(* Sum over every domain that ever recorded.  Call only while no
   worker domain is running. *)
let totals () =
  let t = new_acc () in
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun a ->
          for i = 0 to slots - 1 do
            t.calls.(i) <- t.calls.(i) + a.calls.(i);
            t.ns.(i) <- t.ns.(i) + a.ns.(i);
            t.edges.(i) <- t.edges.(i) + a.edges.(i)
          done)
        !registry);
  t

let engine_ns (t : acc) e =
  let base = engine_index e * 12 in
  let s = ref 0 in
  for i = base to base + 11 do
    s := !s + t.ns.(i)
  done;
  !s

type span = {
  id : int;
  name : string;
  query : string;
  parent : int;
  start : int;
  mutable stop : int;
  mutable child : int;  (** time covered by child spans *)
  mutable wrapped : int;  (** time of wrapped calls made under this span *)
}

type t = {
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : span list;
  mutable next : int;
  mutable query : string;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next = 0; query = ""; counters = Hashtbl.create 16 }

let span tr ?engine name f =
  match tr with
  | None -> f ()
  | Some tr ->
      let parent = match tr.stack with p :: _ -> p.id | [] -> -1 in
      let before = Option.map (fun e -> engine_ns (totals ()) e) engine in
      let s =
        {
          id = tr.next;
          name;
          query = tr.query;
          parent;
          start = now_ns ();
          stop = 0;
          child = 0;
          wrapped = 0;
        }
      in
      tr.next <- tr.next + 1;
      tr.stack <- s :: tr.stack;
      Option.iter (Atomic.set current) engine;
      Fun.protect f ~finally:(fun () ->
          s.stop <- now_ns ();
          (match (engine, before) with
          | Some e, Some b ->
              Atomic.set current Other;
              s.wrapped <- engine_ns (totals ()) e - b
          | _ -> ());
          tr.stack <- List.tl tr.stack;
          (match tr.stack with
          | p :: _ -> p.child <- p.child + (s.stop - s.start)
          | [] -> ());
          tr.spans <- s :: tr.spans)

let count tr name n =
  match tr with
  | None -> ()
  | Some tr ->
      Hashtbl.replace tr.counters name
        (n + Option.value (Hashtbl.find_opt tr.counters name) ~default:0)

let system (type s l) tr sem (sys : (s, l) Mc.System.t) : (s, l) Mc.System.t
    =
  match tr with
  | None -> sys
  | Some _ ->
      let module S = (val sys) in
      (module struct
        type state = S.state
        type label = S.label

        let initial = S.initial

        let successors s =
          let t0 = now_ns () in
          let r = S.successors s in
          record sem Succ t0 (List.length r);
          r

        let hash_state s =
          let t0 = now_ns () in
          let h = S.hash_state s in
          record sem Hash t0 0;
          h

        let equal_state a b =
          let t0 = now_ns () in
          let e = S.equal_state a b in
          record sem Equal t0 0;
          e

        let pp_state = S.pp_state
        let pp_label = S.pp_label
      end)

let pred tr f =
  match tr with
  | None -> f
  | Some _ ->
      fun x ->
        let t0 = now_ns () in
        let r = f x in
        record Pred Succ t0 0;
        r

let monitor tr (m : 'l Mc.Monitor.t) =
  match tr with
  | None -> m
  | Some _ ->
      {
        m with
        Mc.Monitor.step =
          (fun q l ->
            let t0 = now_ns () in
            let r = m.Mc.Monitor.step q l in
            record Pred Succ t0 0;
            r);
        accepting = pred tr m.Mc.Monitor.accepting;
      }

(* Per span name: (count, total ns, self ns). *)
let by_name tr =
  let h = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, tot, self =
        Option.value (Hashtbl.find_opt h s.name) ~default:(0, 0, 0)
      in
      let d = s.stop - s.start in
      Hashtbl.replace h s.name (c + 1, tot + d, self + d - s.child - s.wrapped))
    tr.spans;
  h

let to_jsonl oc tr =
  List.iter
    (fun s ->
      output_string oc
        (Json.obj
           [
             ("id", Json.int s.id);
             ("name", Json.str s.name);
             ("query", Json.str s.query);
             ("parent", Json.int s.parent);
             ("start_ns", Json.int s.start);
             ("end_ns", Json.int s.stop);
             ("self_ns", Json.int (s.stop - s.start - s.child - s.wrapped));
           ]);
      output_char oc '\n')
    (List.rev tr.spans)
