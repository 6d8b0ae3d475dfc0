(* Exact order statistics over raw samples.

   Every percentile the benchmark prints is an actual sample: the
   nearest-rank order statistic, the ceil(q * n)-th smallest value. No
   histogram and no interpolation stands between the samples and the
   reported figure, so two runs differ only by what they measured. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* [q] in (0, 1]; 0 for an empty sample. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile samples q = percentile_sorted (sorted samples) q

let median samples = percentile samples 0.5

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let sum samples = Array.fold_left ( +. ) 0.0 samples

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
