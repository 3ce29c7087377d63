(* Host-speed calibration.

   On a shared host the speed of the same code changes by a third or
   more from one second to the next, and stays changed for seconds to
   minutes, longer than many queries, so no number of passes averages
   the drift out.  A fixed kernel (hash-table inserts and lookups keyed
   by small integer arrays: the verifier's own mix of hashing,
   allocation and memory access) is timed right after each query, at
   most once every 100 ms and outside the query's time, and each
   query's time is reported scaled by [reference_s] over the mean of
   the samples taken last before and right after it, i.e. in seconds
   of a host running at the reference speed at that moment.  The kernel is part of the
   benchmark, so no change to the library moves it. *)

(* The kernel's median time on a 2-core x86-64 host at 2.0 GHz. *)
let reference_s = 0.005

let kernel () =
  let key i = Array.init 8 (fun j -> ((i * 7) + j) land 1023) in
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (key i) i
  done;
  let s = ref 0 in
  for i = 0 to 20_000 do
    s := !s + Option.value (Hashtbl.find_opt h (key i)) ~default:0
  done;
  !s

let samples = ref []
let last = ref 0
let latest = ref reference_s

(* Time the kernel, at most once every 100 ms, so that calibration
   costs a few percent of a run whatever its query sizes. *)
let sample () =
  let t0 = Trace.now_ns () in
  if t0 - !last >= 100_000_000 then begin
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = Trace.now_ns () in
    latest := float (t1 - t0) *. 1e-9;
    samples := !latest :: !samples;
    last := t1
  end

(* Forget the samples taken so far: set-up is scaled by the median
   speed measured while it ran. *)
let restart () = samples := []

(* The most recent sample. *)
let latest_s () = !latest

let median_s () = match !samples with [] -> reference_s | s -> Stats.median s

(* The factor that turns a time measured since the last [restart]
   into reference time. *)
let scale () = reference_s /. median_s ()
