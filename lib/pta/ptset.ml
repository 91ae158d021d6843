(* Immutable sorted int arrays of distinct elements. [union] and [diff]
   hand back an operand physically when the result equals it, so a no-op
   update allocates nothing. *)

type t = int array

let empty : t = [||]
let is_empty t = Array.length t = 0
let cardinal = Array.length
let elements = Array.to_list
let iter = Array.iter
let fold f t acc = Array.fold_left (fun acc x -> f x acc) acc t
let singleton x = [| x |]

let mem x t =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length t && t.(!lo) = x

(* Every element of [a] present in [b]? Allocation-free: per-element
   binary search when [a] is much smaller than [b] (the hot case is a
   small delta against a large accumulated set), a merge walk otherwise. *)
let subset a b =
  a == b
  ||
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let i = ref 0 and j = ref 0 in
  if la * 8 <= lb then while !i < la && mem a.(!i) b do incr i done
  else
    while !i < la && !j < lb && a.(!i) >= b.(!j) do
      if a.(!i) = b.(!j) then incr i;
      incr j
    done;
  !i = la

let union a b =
  if subset b a then a
  else if is_empty a then b
  else begin
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x <= y then incr i;
      if y <= x then incr j;
      out.(!n) <- (if x <= y then x else y);
      incr n
    done;
    Array.blit a !i out !n (la - !i);
    Array.blit b !j out (!n + la - !i) (lb - !j);
    let n = !n + la - !i + lb - !j in
    if n = lb then b else if n = la + lb then out else Array.sub out 0 n
  end

(* Count the elements of [a] missing from [b], copying them into [out]
   unless it is empty; probes [b] like [subset]. *)
let missing a b out =
  let la = Array.length a and lb = Array.length b in
  let j = ref 0 and n = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) in
    let found =
      if la * 8 <= lb then mem x b
      else begin
        while !j < lb && b.(!j) < x do incr j done;
        !j < lb && b.(!j) = x
      end
    in
    if not found then begin
      if Array.length out > 0 then out.(!n) <- x;
      incr n
    end
  done;
  !n

(* Two passes: count the survivors, then copy them into an array of
   exactly that size. *)
let diff a b =
  let kept = if is_empty b then Array.length a else missing a b empty in
  if kept = Array.length a then a
  else if kept = 0 then empty
  else begin
    let out = Array.make kept 0 in
    ignore (missing a b out);
    out
  end

let add x t = if mem x t then t else union t [| x |]
