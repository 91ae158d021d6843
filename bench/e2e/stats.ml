(* Order statistics, computed exactly as Python's [statistics] module
   does, so the numbers printed here and the ones a reader recomputes
   from the results file agree to the last digit. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* statistics.median *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(xs, n=n), default 'exclusive' method: the n-1
   cut points. *)
let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then Array.make (n - 1) nan
  else if ld = 1 then Array.make (n - 1) a.(0)
  else
    let m = ld + 1 in
    Array.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  let q = quantiles ~n:4 xs in
  (q.(0), q.(1), q.(2))

let p90 xs = (quantiles ~n:10 xs).(8)
let p99 xs = (quantiles ~n:100 xs).(98)
let sum xs = List.fold_left ( +. ) 0. xs
