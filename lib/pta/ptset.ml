(* Interned sorted int arrays with memoized set operations.

   The interner owns two tables: [intern] maps array contents to the
   canonical set value, and the operation memos map operand identities
   to results. Neither is synchronised: an interner is single-threaded. *)

type t = { sid : int; arr : int array }

let empty = { sid = 0; arr = [||] }
let id t = t.sid
let is_empty t = t.sid = 0
let cardinal t = Array.length t.arr
let equal a b = a == b
let elements t = Array.to_list t.arr
let iter f t = Array.iter f t.arr

let fold f t acc =
  let r = ref acc in
  Array.iter (fun x -> r := f x !r) t.arr;
  !r

let mem x t =
  let a = t.arr in
  let lo = ref 0 and hi = ref (Array.length a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

(* Every element of [a] present in [b]? Read-only and allocation-free:
   a linear merge walk for comparable sizes, per-element binary search
   when [a] is much smaller than [b] — the hot case is a singleton delta
   probed against a large accumulated set. *)
let subset a b =
  a == b
  ||
  let la = Array.length a.arr and lb = Array.length b.arr in
  la <= lb
  &&
  if la * 8 <= lb then (
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < la do
      if not (mem a.arr.(!i) b) then ok := false;
      incr i
    done;
    !ok)
  else
    let i = ref 0 and j = ref 0 and ok = ref true in
    while !ok && !i < la do
      if !j >= lb then ok := false
      else
        let x = a.arr.(!i) and y = b.arr.(!j) in
        if x = y then begin incr i; incr j end
        else if y < x then incr j
        else ok := false
    done;
    !ok

module ArrKey = struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let n = Array.length a in
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do incr i done;
    !i = n

  let hash (a : int array) =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 0x01000193) lxor x) a;
    !h land max_int
end

module ArrTbl = Hashtbl.Make (ArrKey)

module PairKey = struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = ((a * 0x9e3779b1) lxor b) land max_int
end

module PairTbl = Hashtbl.Make (PairKey)

type interner = {
  intern : t ArrTbl.t;
  union_memo : t PairTbl.t;
  diff_memo : t PairTbl.t;
  sing_memo : (int, t) Hashtbl.t;
  mutable next_id : int;
  mutable n_interned : int;
  mutable n_memo_hits : int;
}

let create () =
  {
    intern = ArrTbl.create 1024;
    union_memo = PairTbl.create 4096;
    diff_memo = PairTbl.create 4096;
    sing_memo = Hashtbl.create 256;
    next_id = 1;
    n_interned = 0;
    n_memo_hits = 0;
  }

let interned_count it = it.n_interned
let memo_hits it = it.n_memo_hits

let compact it live =
  PairTbl.reset it.union_memo;
  PairTbl.reset it.diff_memo;
  Hashtbl.reset it.sing_memo;
  (* rebuild the intern table around the caller's surviving sets: the
     transient intermediates a converged solve no longer references
     (every growth step interned its prefix) get collected. Survivors
     keep their identity, so pointer equality between them still holds
     and future operations still dedup against them. *)
  ArrTbl.reset it.intern;
  (* [n_interned] keeps counting sets ever created, not table size *)
  List.iter
    (fun s ->
      if s.sid <> 0 && not (ArrTbl.mem it.intern s.arr) then
        ArrTbl.add it.intern s.arr s)
    live

let intern it (a : int array) : t =
  if Array.length a = 0 then empty
  else
    match ArrTbl.find_opt it.intern a with
    | Some s -> s
    | None ->
        let s = { sid = it.next_id; arr = a } in
        it.next_id <- it.next_id + 1;
        it.n_interned <- it.n_interned + 1;
        ArrTbl.add it.intern a s;
        s

let singleton it x =
  match Hashtbl.find_opt it.sing_memo x with
  | Some s ->
      it.n_memo_hits <- it.n_memo_hits + 1;
      s
  | None ->
      let s = intern it [| x |] in
      Hashtbl.add it.sing_memo x s;
      s

let union it a b =
  if a == b || is_empty b then a
  else if is_empty a then b
  else begin
    (* commutative: normalize the memo key *)
    let k = if a.sid <= b.sid then (a.sid, b.sid) else (b.sid, a.sid) in
    match PairTbl.find_opt it.union_memo k with
    | Some s ->
        it.n_memo_hits <- it.n_memo_hits + 1;
        s
    | None ->
        let s =
          if subset a b then b
          else if subset b a then a
          else begin
            let la = Array.length a.arr and lb = Array.length b.arr in
            let out = Array.make (la + lb) 0 in
            let i = ref 0 and j = ref 0 and n = ref 0 in
            while !i < la && !j < lb do
              let x = a.arr.(!i) and y = b.arr.(!j) in
              let v =
                if x = y then begin incr i; incr j; x end
                else if x < y then begin incr i; x end
                else begin incr j; y end
              in
              out.(!n) <- v;
              incr n
            done;
            while !i < la do out.(!n) <- a.arr.(!i); incr i; incr n done;
            while !j < lb do out.(!n) <- b.arr.(!j); incr j; incr n done;
            intern it (Array.sub out 0 !n)
          end
        in
        PairTbl.add it.union_memo k s;
        s
  end

let diff it a b =
  if is_empty a then empty
  else if is_empty b || a == b then (if a == b then empty else a)
  else
    match PairTbl.find_opt it.diff_memo (a.sid, b.sid) with
    | Some s ->
        it.n_memo_hits <- it.n_memo_hits + 1;
        s
    | None ->
        let s =
          if subset a b then empty
          else begin
            let la = Array.length a.arr and lb = Array.length b.arr in
            let out = Array.make la 0 in
            let i = ref 0 and j = ref 0 and n = ref 0 in
            while !i < la do
              let x = a.arr.(!i) in
              while !j < lb && b.arr.(!j) < x do incr j done;
              if !j < lb && b.arr.(!j) = x then incr i
              else begin
                out.(!n) <- x;
                incr n;
                incr i
              end
            done;
            if !n = la then a else intern it (Array.sub out 0 !n)
          end
        in
        PairTbl.add it.diff_memo (a.sid, b.sid) s;
        s

let add it x t = if mem x t then t else union it (singleton it x) t
