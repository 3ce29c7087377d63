type ('s, 'l) space = {
  lts : 'l Lts.Graph.t;
  states : 's array;
  complete : bool;
}

let default_max = 1_000_000

(* [a] with room for index [i] (ids are dense, so [i <= length a]),
   doubling and filling new cells with [x]. *)
let ensure a i x =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max 1024 (2 * n)) x in
    Array.blit a 0 b 0 n;
    b
  end

(* The duplicate-detection index shared by every entry point: open
   addressing with linear probing over one flat [int array], two cells
   per slot — the state id ([-1] when empty) and that state's full hash,
   masked non-negative (a system's hash may overflow into negatives).
   States live in an id-indexed array in discovery order, so an id is
   also the state's BFS position.  The load stays at or below 1/2; on
   doubling, entries are re-placed from their stored hashes, so each
   state is hashed exactly once, when it is first generated. *)
module Index (S : System.S) = struct
  type t = {
    mutable slots : int array;
    mutable bits : int;  (** log2 of the slot count *)
    mutable states : S.state array;
    mutable count : int;
  }

  let initial_bits = 12 (* 4096 slots *)

  let create () =
    {
      slots = Array.make (2 lsl initial_bits) (-1);
      bits = initial_bits;
      states = [||];
      count = 0;
    }

  let hash s = S.hash_state s land max_int

  (* Fibonacci hashing: the top [bits] bits of the product, so a hash
     with weak low bits still spreads over the table. *)
  let home bits h = (h * 0x4F1BBCDCBFA53E0B) lsr (63 - bits)

  (* The id of [s] (full hash [h]) if present, else [-1 - k] for the
     empty slot [k] that ends its probe sequence.  Stored hashes are
     compared before [equal_state] is called. *)
  let lookup t s h =
    let slots = t.slots and mask = (1 lsl t.bits) - 1 in
    let k = ref (home t.bits h) and r = ref min_int in
    while !r = min_int do
      let id = Array.unsafe_get slots (2 * !k) in
      if id < 0 then r := -1 - !k
      else if
        Array.unsafe_get slots ((2 * !k) + 1) = h
        && S.equal_state (Array.unsafe_get t.states id) s
      then r := id
      else k := (!k + 1) land mask
    done;
    !r

  let grow t =
    let old = t.slots in
    let bits = t.bits + 1 in
    let slots = Array.make (2 lsl bits) (-1) and mask = (1 lsl bits) - 1 in
    for k = 0 to (Array.length old / 2) - 1 do
      let id = old.(2 * k) in
      if id >= 0 then begin
        let h = old.((2 * k) + 1) in
        let j = ref (home bits h) in
        while slots.(2 * !j) >= 0 do
          j := (!j + 1) land mask
        done;
        slots.(2 * !j) <- id;
        slots.((2 * !j) + 1) <- h
      end
    done;
    t.slots <- slots;
    t.bits <- bits

  (* Give [s] (hash [h]) the next id, in the empty slot [-1 - miss]
     that {!lookup} returned for it. *)
  let add t miss s h =
    let id = t.count and k = -1 - miss in
    t.states <- ensure t.states id s;
    t.states.(id) <- s;
    t.count <- id + 1;
    t.slots.(2 * k) <- id;
    t.slots.((2 * k) + 1) <- h;
    if 2 * t.count > 1 lsl t.bits then grow t;
    id

  let intern t s =
    let h = hash s in
    let r = lookup t s h in
    if r >= 0 then r else add t r s h
end

type exhaustion = {
  reason : Budget.reason;
  states_so_far : int;
  coverage : Store.coverage;
}

let pp_exhaustion ppf e =
  Format.fprintf ppf "exhausted after %d states: %a" e.states_so_far
    Budget.pp_reason e.reason

type ('s, 'l) cursor = {
  c_max_states : int;
  c_states : 's array; (* discovery order; index = state id *)
  c_depths : int array;
  c_trans : (int * 'l * int) list; (* accumulated, newest first *)
  c_queue : int array; (* unexpanded state ids, front first *)
  c_complete : bool;
}

let cursor_states c = Array.length c.c_states
let cursor_frontier c = Array.length c.c_queue

type ('s, 'l) run_result =
  | Done of ('s, 'l) space
  | Suspended of Budget.reason * ('s, 'l) cursor

(* The BFS queue of every entry point is the id range [head, count):
   ids are handed out in discovery order, so the states still to expand
   are exactly the ones interned after the last expanded one.  A resumed
   cursor's own queue is drained first — a parallel engine's frontier is
   sorted by id but need not be a suffix of them — and then the ids
   interned since the cursor, from its state count on. *)
let space_run (type s l) ?(max_states = default_max) ?budget ?checkpoint
    ?resume (sys : (s, l) System.t) : (s, l) run_result =
  let module S = (val sys) in
  let module I = Index (S) in
  let index = I.create () in
  let depths = ref [| 0 |] in
  let complete = ref true in
  let transitions = ref [] in
  let pending = ref [||] in
  let next_pending = ref 0 in
  let head = ref 0 in
  (match resume with
  | None -> ignore (I.intern index S.initial)
  | Some c ->
      if c.c_max_states <> max_states then
        invalid_arg
          (Printf.sprintf
             "Mc.Explore.space_run: checkpoint was taken with \
              max_states=%d, resumed with %d"
             c.c_max_states max_states);
      (* Re-interning in discovery order reproduces the index and the
         id counter exactly, so the continuation is byte-identical to an
         uninterrupted run. *)
      Array.iter (fun s -> ignore (I.intern index s)) c.c_states;
      depths := Array.copy c.c_depths;
      transitions := c.c_trans;
      complete := c.c_complete;
      pending := c.c_queue;
      head := Array.length c.c_states);
  let snapshot () =
    let n = index.I.count in
    {
      c_max_states = max_states;
      c_states = Array.sub index.I.states 0 n;
      c_depths = Array.sub !depths 0 n;
      c_trans = !transitions;
      c_queue =
        Array.append
          (Array.sub !pending !next_pending
             (Array.length !pending - !next_pending))
          (Array.init (n - !head) (fun k -> !head + k));
      c_complete = !complete;
    }
  in
  let expanded = ref 0 in
  let suspended = ref None in
  (try
     while !next_pending < Array.length !pending || !head < index.I.count do
       (match budget with
       | Some b -> (
           match Budget.check b with
           | Some r ->
               suspended := Some (Suspended (r, snapshot ()));
               raise Exit
           | None -> ())
       | None -> ());
       let i =
         if !next_pending < Array.length !pending then begin
           incr next_pending;
           !pending.(!next_pending - 1)
         end
         else begin
           incr head;
           !head - 1
         end
       in
       let d = !depths.(i) + 1 in
       List.iter
         (fun (l, s') ->
           (* Truncation contract: once the bound is reached no new state
              is interned, but every retained state is still expanded and
              transitions between retained states are kept — the result
              is the induced subgraph on the first [max_states] states in
              BFS discovery order (see the .mli). *)
           let h = I.hash s' in
           let r = I.lookup index s' h in
           if r >= 0 then transitions := (i, l, r) :: !transitions
           else if index.I.count < max_states then begin
             let j = I.add index r s' h in
             depths := ensure !depths j d;
             !depths.(j) <- d;
             transitions := (i, l, j) :: !transitions
           end
           else complete := false)
         (S.successors index.I.states.(i));
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
      let n = index.I.count in
      let lts =
        Lts.Graph.make ~num_states:n ~initial:0 (List.rev !transitions)
      in
      Done { lts; states = Array.sub index.I.states 0 n; complete = !complete }

let space ?max_states sys =
  match space_run ?max_states sys with
  | Done sp -> sp
  | Suspended _ -> assert false (* no budget, cannot suspend *)

type ('s, 'l) witness = { trace : 'l list; state : 's }

type ('s, 'l) verdict =
  | Unreachable
  | Reached of ('s, 'l) witness
  | Bound_hit of int
  | Exhausted of exhaustion

let find (type s l) ?(max_states = default_max) ?budget ~goal
    (sys : (s, l) System.t) : (s, l) verdict =
  let module S = (val sys) in
  let module I = Index (S) in
  let index = I.create () in
  (* Shortest-trace reconstruction: per state id, its parent's id and
     the label of the edge from it (unset for the initial state, id 0). *)
  let parents = ref [||] in
  let labels = ref [||] in
  let rebuild j =
    let rec go j acc = if j = 0 then acc else go !parents.(j) (!labels.(j) :: acc) in
    go j []
  in
  if goal S.initial then Reached { trace = []; state = S.initial }
  else begin
    ignore (I.intern index S.initial);
    let head = ref 0 in
    let result = ref None in
    let exhausted = ref None in
    let truncated = ref false in
    (try
       while !head < index.I.count do
         (match budget with
         | Some b -> (
             match Budget.check b with
             | Some r ->
                 exhausted := Some r;
                 raise Exit
             | None -> ())
         | None -> ());
         let i = !head in
         incr head;
         List.iter
           (fun (l, s') ->
             let h = I.hash s' in
             let r = I.lookup index s' h in
             if r < 0 then
               if index.I.count >= max_states then truncated := true
               else begin
                 let j = I.add index r s' h in
                 parents := ensure !parents j i;
                 !parents.(j) <- i;
                 labels := ensure !labels j l;
                 !labels.(j) <- l;
                 if goal s' then begin
                   result := Some (rebuild j, s');
                   raise Exit
                 end
               end)
           (S.successors index.I.states.(i))
       done
     with Exit -> ());
    match (!result, !exhausted) with
    | Some (trace, state), _ -> Reached { trace; state }
    | None, Some reason ->
        Exhausted
          {
            reason;
            states_so_far = index.I.count;
            coverage = Store.coverage_of ~mode:Store.exact ~stored:index.I.count;
          }
    | None, None -> if !truncated then Bound_hit max_states else Unreachable
  end

let count (type s l) ?(max_states = default_max) ?budget
    (sys : (s, l) System.t) =
  let module S = (val sys) in
  let module I = Index (S) in
  let index = I.create () in
  let complete = ref true in
  ignore (I.intern index S.initial);
  let head = ref 0 in
  (try
     while !head < index.I.count do
       (match budget with
       | Some b -> (
           match Budget.check b with
           | Some _ ->
               complete := false;
               raise Exit
           | None -> ())
       | None -> ());
       let s = index.I.states.(!head) in
       incr head;
       List.iter
         (fun (_, s') ->
           let h = I.hash s' in
           let r = I.lookup index s' h in
           if r < 0 then
             if index.I.count >= max_states then complete := false
             else ignore (I.add index r s' h))
         (S.successors s)
     done
   with Exit -> ());
  (index.I.count, !complete)
