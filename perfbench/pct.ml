(* Exact order-statistic percentiles (nearest rank). No interpolation
   and no bucketing: the reported value is always one of the samples,
   so the p50 of a single sample is that sample. *)

(* 1-based nearest rank of the [pct]-th percentile among [n] samples:
   ceil (pct * n / 100), in integer arithmetic so that no rounding of
   [pct /. 100.] can move the rank. *)
let rank ~pct n =
  if n <= 0 then invalid_arg "Pct.rank: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Pct.rank: pct outside (0, 100]";
  max 1 (((pct * n) + 99) / 100)

let of_sorted ~pct sorted = sorted.(rank ~pct (Array.length sorted) - 1)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile ~pct samples = of_sorted ~pct (sorted samples)

(* Samples strictly above the percentile's rank: the guide asks for at
   least ten beyond the highest percentile reported. *)
let beyond ~pct n = n - rank ~pct n

let median samples = percentile ~pct:50 samples

(* Weighted nearest rank over (value, weight) pairs: the smallest value
   that, with every smaller one, carries at least [pct]% of the total
   weight. With equal integer weights it is [percentile]. *)
let weighted_percentile ~pct samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pct.weighted_percentile: no samples";
  if pct <= 0 || pct > 100 then
    invalid_arg "Pct.weighted_percentile: pct outside (0, 100]";
  let a = Array.copy samples in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 a in
  let target = total *. float_of_int pct /. 100.0 in
  let rec go i acc =
    let v, w = a.(i) in
    if acc +. w >= target || i = n - 1 then v else go (i + 1) (acc +. w)
  in
  go 0 0.0
