(* The sequential explorer as it was before Mc.Explore moved to a flat
   open-addressing index: BFS over a [Hashtbl.Make] table keyed by the
   system's own equality and hash, a [Queue] of pending states and
   reversed lists.  It is kept verbatim (less the table pre-sizing hint,
   which never changed a result) as the reference the current engine is
   checked against in test_mc.ml: same spaces, cursors, verdicts and
   traces, byte for byte.  It returns Mc.Explore's own types. *)

open Mc.Explore

let initial_capacity = 4096

(* A hash table keyed by the system's own state equality and hash. *)
module Table (S : Mc.System.S) = Hashtbl.Make (struct
  type t = S.state

  let equal = S.equal_state
  let hash = S.hash_state
end)

let space_run (type s l) ?(max_states = default_max) ?budget
    ?checkpoint ?resume (sys : (s, l) Mc.System.t) : (s, l) run_result =
  let module S = (val sys) in
  let module T = Table (S) in
  let index = T.create initial_capacity in
  let states = ref [] in
  let depths = ref [] in
  let count = ref 0 in
  let complete = ref true in
  let transitions = ref [] in
  (* Queue entries carry the BFS depth so cursors record it for the
     parallel engine's truncation machinery; the sequential loop itself
     never branches on it. *)
  let queue : (int * s * int) Queue.t = Queue.create () in
  let intern s d =
    match T.find_opt index s with
    | Some i -> i
    | None ->
        let i = !count in
        T.add index s i;
        states := s :: !states;
        depths := d :: !depths;
        incr count;
        i
  in
  (match resume with
  | None ->
      let i0 = intern S.initial 0 in
      Queue.add (i0, S.initial, 0) queue
  | Some c ->
      if c.c_max_states <> max_states then
        invalid_arg
          (Printf.sprintf
             "Mc.Explore.space_run: checkpoint was taken with \
              max_states=%d, resumed with %d"
             c.c_max_states max_states);
      (* Re-interning in discovery order reproduces the table, the
         reversed state list and the id counter exactly, so the
         continuation is byte-identical to an uninterrupted run. *)
      Array.iteri (fun i s -> ignore (intern s c.c_depths.(i))) c.c_states;
      transitions := c.c_trans;
      complete := c.c_complete;
      Array.iter
        (fun i -> Queue.add (i, c.c_states.(i), c.c_depths.(i)) queue)
        c.c_queue);
  let snapshot () =
    {
      c_max_states = max_states;
      c_states = Array.of_list (List.rev !states);
      c_depths = Array.of_list (List.rev !depths);
      c_trans = !transitions;
      c_queue =
        Array.of_seq (Seq.map (fun (i, _, _) -> i) (Queue.to_seq queue));
      c_complete = !complete;
    }
  in
  let expanded = ref 0 in
  let suspended = ref None in
  (try
     while not (Queue.is_empty queue) do
       (match budget with
       | Some b -> (
           match Mc.Budget.check b with
           | Some r ->
               suspended := Some (Suspended (r, snapshot ()));
               raise Exit
           | None -> ())
       | None -> ());
       let i, s, d = Queue.pop queue in
       List.iter
         (fun (l, s') ->
           (* Truncation contract: once the bound is reached no new state
              is interned, but every retained state is still expanded and
              transitions between retained states are kept — the result
              is the induced subgraph on the first [max_states] states in
              BFS discovery order (see the .mli). *)
           if !count < max_states || T.mem index s' then begin
             let before = !count in
             let j = intern s' (d + 1) in
             transitions := (i, l, j) :: !transitions;
             if j >= before then Queue.add (j, s', d + 1) queue
           end
           else complete := false)
         (S.successors s);
       incr expanded;
       match checkpoint with
       | Some (every, f) when every > 0 && !expanded mod every = 0 ->
           f (snapshot ())
       | _ -> ()
     done
   with Exit -> ());
  match !suspended with
  | Some r -> r
  | None ->
      let states = Array.of_list (List.rev !states) in
      let lts =
        Lts.Graph.make ~num_states:!count ~initial:0 (List.rev !transitions)
      in
      Done { lts; states; complete = !complete }

let space ?max_states sys =
  match space_run ?max_states sys with
  | Done sp -> sp
  | Suspended _ -> assert false (* no budget, cannot suspend *)

let find (type s l) ?(max_states = default_max) ?budget ~goal
    (sys : (s, l) Mc.System.t) : (s, l) verdict =
  let module S = (val sys) in
  let module T = Table (S) in
  let visited = T.create initial_capacity in
  (* Parent pointers for shortest-trace reconstruction: state index ->
     (label, parent index); states are also kept in an extensible array. *)
  let states = ref [||] in
  let parents = ref [||] in
  let count = ref 0 in
  let push s parent =
    if !count >= Array.length !states then begin
      let cap = max 64 (2 * Array.length !states) in
      let grow a fill = Array.append a (Array.make (cap - Array.length a) fill) in
      states := grow !states s;
      parents := grow !parents parent
    end;
    !states.(!count) <- s;
    !parents.(!count) <- parent;
    T.add visited s !count;
    incr count;
    !count - 1
  in
  let rebuild i =
    let rec go i acc =
      match !parents.(i) with
      | None -> acc
      | Some (l, p) -> go p (l :: acc)
    in
    go i []
  in
  if goal S.initial then Reached { trace = []; state = S.initial }
  else begin
    let queue = Queue.create () in
    let i0 = push S.initial None in
    Queue.add i0 queue;
    let result = ref None in
    let exhausted = ref None in
    let truncated = ref false in
    (try
       while not (Queue.is_empty queue) do
         (match budget with
         | Some b -> (
             match Mc.Budget.check b with
             | Some r ->
                 exhausted := Some r;
                 raise Exit
             | None -> ())
         | None -> ());
         let i = Queue.pop queue in
         let s = !states.(i) in
         List.iter
           (fun (l, s') ->
             if not (T.mem visited s') then
               if !count >= max_states then truncated := true
               else begin
                 let j = push s' (Some (l, i)) in
                 if goal s' then begin
                   result := Some (rebuild j, s');
                   raise Exit
                 end;
                 Queue.add j queue
               end)
           (S.successors s)
       done
     with Exit -> ());
    match (!result, !exhausted) with
    | Some (trace, state), _ -> Reached { trace; state }
    | None, Some reason ->
        Exhausted
          {
            reason;
            states_so_far = !count;
            coverage = Mc.Store.coverage_of ~mode:Mc.Store.exact ~stored:!count;
          }
    | None, None -> if !truncated then Bound_hit max_states else Unreachable
  end

let count (type s l) ?(max_states = default_max) ?budget
    (sys : (s, l) Mc.System.t) =
  let module S = (val sys) in
  let module T = Table (S) in
  let visited = T.create initial_capacity in
  let queue = Queue.create () in
  let complete = ref true in
  T.add visited S.initial ();
  Queue.add S.initial queue;
  (try
     while not (Queue.is_empty queue) do
       (match budget with
       | Some b -> (
           match Mc.Budget.check b with
           | Some _ ->
               complete := false;
               raise Exit
           | None -> ())
       | None -> ());
       let s = Queue.pop queue in
       List.iter
         (fun (_, s') ->
           if not (T.mem visited s') then
             if T.length visited >= max_states then complete := false
             else begin
               T.add visited s' ();
               Queue.add s' queue
             end)
         (S.successors s)
     done
   with Exit -> ());
  (T.length visited, !complete)
