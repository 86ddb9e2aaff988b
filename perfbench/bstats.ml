(* Order statistics over latency samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let median a = percentile a 50.

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let ladder = [ 50.; 75.; 90.; 95.; 98.; 99.; 99.5; 99.8; 99.9; 99.95; 99.98 ]

(* The highest percentile on the ladder that leaves at least ten samples
   beyond it at [n] samples (the tail a run of [n] commands can report). *)
let tail_level n =
  List.fold_left (fun acc p -> if beyond n p >= 10 then p else acc) 50. ladder
