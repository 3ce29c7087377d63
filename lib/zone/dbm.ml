(* Flat int-array DBMs with the UPPAAL bound encoding: a bound (v, ≺)
   is the int [2v + (≺ = ≤ ? 1 : 0)], so tighter bounds are smaller
   ints and bound comparison is machine [<].  Infinity is [max_int];
   [badd] saturates on it.  Entry (i, j) lives at [i * dim + j]. *)

type t = int array

let inf = max_int

(* The largest constant magnitude a finite bound may carry: 2^60 - 1 on
   64-bit hosts.  A bound (v, ≺) with |v| <= max_const encodes to an int
   of magnitude at most 2 max_const + 1 = 2^61 - 1, so a [badd] of two
   finite bounds stays within ±(2^62 - 2): it can neither wrap around
   nor reach the [inf] sentinel.  Compilers reject larger constants. *)
let max_const = max_int / 4
let bnd v ~strict = (v * 2) + if strict then 0 else 1
let value b = b asr 1
let is_strict b = b land 1 = 0
let le_zero = bnd 0 ~strict:false

let badd a b =
  if a = inf || b = inf then inf else a + b - ((a lor b) land 1)

let zero ~dim = Array.make (dim * dim) le_zero
let copy = Array.copy

(* Floyd–Warshall.  Empty iff some diagonal entry drops below (0, ≤);
   the diagonal is pinned back to (0, ≤) so closed DBMs compare
   entrywise. *)
let close ~dim (m : t) =
  let ok = ref true in
  for k = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      let mik = m.((i * dim) + k) in
      if mik <> inf then
        for j = 0 to dim - 1 do
          let via = badd mik m.((k * dim) + j) in
          if via < m.((i * dim) + j) then m.((i * dim) + j) <- via
        done
    done
  done;
  for i = 0 to dim - 1 do
    if m.((i * dim) + i) < le_zero then ok := false
    else m.((i * dim) + i) <- le_zero
  done;
  !ok

(* Incremental tightening: with [m] closed and a new bound b on
   x_i - x_j, every entry (p, q) can only improve through the new edge,
   so one O(dim²) pass over paths p -> i -> j -> q re-closes. *)
let constrain ~dim (m : t) i j b =
  if b >= m.((i * dim) + j) then true (* no tightening: still closed *)
  else if badd b m.((j * dim) + i) < le_zero then false (* negative cycle *)
  else begin
    m.((i * dim) + j) <- b;
    for p = 0 to dim - 1 do
      let pi = m.((p * dim) + i) in
      if pi <> inf then begin
        let pj = badd pi b in
        if pj < m.((p * dim) + j) then m.((p * dim) + j) <- pj;
        let pj = m.((p * dim) + j) in
        if pj <> inf then
          for q = 0 to dim - 1 do
            let pq = badd pj m.((j * dim) + q) in
            if pq < m.((p * dim) + q) then m.((p * dim) + q) <- pq
          done
      end
    done;
    true
  end

let up ~dim (m : t) =
  for i = 1 to dim - 1 do
    m.((i * dim) + 0) <- inf
  done

let reset ~dim (m : t) i =
  (* x_i := 0: x_i - x_j inherits 0 - x_j, x_j - x_i inherits x_j - 0. *)
  for j = 0 to dim - 1 do
    m.((i * dim) + j) <- m.(j);
    (* row 0 entry (0, j) *)
    m.((j * dim) + i) <- m.(j * dim)
    (* column 0 entry (j, 0) *)
  done;
  m.((i * dim) + i) <- le_zero

let intersect ~dim (m : t) (other : t) =
  for k = 0 to (dim * dim) - 1 do
    if other.(k) < m.(k) then m.(k) <- other.(k)
  done;
  close ~dim m

let includes ~dim (big : t) (small : t) =
  let n = dim * dim in
  let rec go k = k >= n || (small.(k) <= big.(k) && go (k + 1)) in
  go 0

let clock_lo ~dim (m : t) i =
  (* entry (0, i) bounds 0 - x_i, i.e. x_i >= -v (strictly if strict) *)
  let b = m.(i) in
  ignore dim;
  let v = -value b in
  if is_strict b then v + 1 else v

let clock_hi ~dim (m : t) i =
  let b = m.((i * dim) + 0) in
  if b = inf then None
  else
    let v = value b in
    Some (if is_strict b then v - 1 else v)

(* Extra_LU, diagonal-free form (Behrmann, Bouyer, Larsen, Pelánek,
   "Lower and Upper Bounds in Zone-Based Abstractions of Timed
   Automata").  With l.(i) / u.(i) the largest constants the model
   compares clock i against from below / above (-1 when it never
   does), and row-0 entries read from the *input* matrix:

     m'[i][j] = inf          if  v(m[i][j]) >  l(i)          (i ≠ 0)
     m'[i][j] = inf          if -v(m[0][i]) >  l(i)          (i ≠ 0)
     m'[i][j] = inf          if -v(m[0][j]) >  u(j)          (i ≠ 0, j ≠ 0)
     m'[0][j] = (-u(j), <)   if -v(m[0][j]) >  u(j)   — clamped at (0, ≤)

   The first two clauses drop zone upper bounds a lower-bound guard
   can never see; the last two weaken zone lower bounds beyond every
   upper-bound guard.  Extrapolation only enlarges the zone, so the
   re-closure cannot find it empty. *)
let extrapolate_lu ~dim (m : t) ~l ~u =
  let row0 = Array.init dim (fun j -> m.(j)) in
  let low j =
    (* the zone's lower bound on x_j as an integer-oriented value *)
    -value row0.(j)
  in
  let changed = ref false in
  for i = 1 to dim - 1 do
    for j = 0 to dim - 1 do
      if i <> j then begin
        let e = m.((i * dim) + j) in
        if
          e <> inf
          && (value e > l.(i)
             || low i > l.(i)
             || (j <> 0 && low j > u.(j)))
        then begin
          m.((i * dim) + j) <- inf;
          changed := true
        end
      end
    done
  done;
  for j = 1 to dim - 1 do
    if low j > u.(j) then begin
      let b = if u.(j) < 0 then le_zero else bnd (-u.(j)) ~strict:true in
      if b > m.(j) then begin
        m.(j) <- b;
        changed := true
      end
    end
  done;
  if !changed then ignore (close ~dim m : bool)

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go k = k >= n || (a.(k) = b.(k) && go (k + 1)) in
  go 0

let hash (m : t) =
  let h = ref 0x811c9dc5 in
  for k = 0 to Array.length m - 1 do
    h := (!h lxor m.(k)) * 0x01000193 land max_int
  done;
  !h

let pp ~dim ~names ppf (m : t) =
  let first = ref true in
  let sep () =
    if !first then first := false else Format.fprintf ppf " && "
  in
  let pp_bound lhs b =
    Format.fprintf ppf "%s %s %d" lhs
      (if is_strict b then "<" else "<=")
      (value b)
  in
  Format.fprintf ppf "@[<h>";
  for i = 1 to dim - 1 do
    let lo = m.(i) and hi = m.((i * dim) + 0) in
    if lo < le_zero then begin
      sep ();
      Format.fprintf ppf "%s %s %d" names.(i)
        (if is_strict lo then ">" else ">=")
        (-value lo)
    end;
    if hi <> inf then begin
      sep ();
      pp_bound names.(i) hi
    end
  done;
  for i = 1 to dim - 1 do
    for j = 1 to dim - 1 do
      if i <> j && m.((i * dim) + j) <> inf then begin
        sep ();
        pp_bound (names.(i) ^ "-" ^ names.(j)) m.((i * dim) + j)
      end
    done
  done;
  if !first then Format.fprintf ppf "true";
  Format.fprintf ppf "@]"
