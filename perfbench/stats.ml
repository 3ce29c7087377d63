(* Order statistics for the benchmark's timings.

   Percentiles are given in tenths of a percent (500 = median, 900 =
   p90) so that ranks are computed in exact integer arithmetic: with
   floats, 0.9 *. 100. rounds up past 90 and shifts the rank by one. *)

(* Nearest-rank percentile of a non-empty sample: the smallest value
   with at least [p] tenths of a percent of the sample at or below it. *)
let rank p n = max 1 (min n (((p * n) + 999) / 1000))

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(rank p (Array.length a) - 1)

let median xs = percentile 500 xs

(* Samples strictly above the [p] percentile's rank. *)
let beyond p n = n - rank p n

(* The highest of p99.9, p99 and p90 that still has at least ten
   samples beyond it, or [None] for fewer than 100 samples: a tail
   percentile resting on fewer points is not reported. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond p n >= 10) [ 999; 990; 900 ]

let percentile_name p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

let sum = List.fold_left ( +. ) 0.
