(* A seeded, size-bounded generator of well-typed MiniC++ programs, and
   the facts about each that the liveness oracles check.

   One to four classes derive from a root [K0] that holds a [next]
   pointer and, in some programs, a function-pointer field [fn]; each
   adds int and double fields and may override the virtual [get] to
   touch different ones. [main] links one stack object per class into a
   ring through [next], points receivers of one static class at objects
   of another, and nests if/else, while and for with guarded
   break/continue over &&/||/! of printing probes, int/float arithmetic
   with casts both ways, address-taken int locals, member reads, writes
   and [sink(&o.f)], calls of [get] and [fn], then-blocks that end in
   [p = p->next] before an else-block, and do-while loops. Updates
   ([=], [+=], [-=], [*=], prefix and postfix [++]/[--]) of int, double
   and [char] locals and of members through every route, and the
   assignments of the [bool] local ([++]/[--] become [+= 1]/[-= 1], as
   C++ has no [++]/[--] on bool), stand as statements or keep their
   value for a print or a chained assignment ([iA = iB = k],
   [x = o.f += k]); the [char] and [bool] get values out of their range.
   Object pointers are compared with [==]/[!=], against each other and
   against [NULL] on either side, and scan loops walk [next] from a
   pointer until a pointer equal to a target or [NULL]
   ([while (s != NULL) { if (s->next == u) {...; break; } s = s->next; }],
   which the VM runs as one [ILoopScan]).

   Every program terminates: each loop has a fresh counter bounded by 3,
   the ring is finite, a scan meets its target (on the ring) or [NULL]
   within one lap, and nothing recurses. A description names classes,
   receivers and fields by indices the renderer takes modulo what
   exists, so every description is a well-typed program and [QCheck2]
   shrinks each part on its own. *)

open QCheck2

type kind = Int | Double

(* what a member access goes through: [oC.], [rJ->], [p->] or [this] *)
type obj = Stack of int | Recv of int | Chased | This

type bexpr =
  | Probe of int * bool  (* probe(id, v) prints id, returns v *)
  | Cmp of int * int
  | And of bexpr * bexpr
  | Or of bexpr * bexpr
  | Not of bexpr

type cond = Mod of int (* acc % k == 0 *) | Probes of bexpr

type stmt =
  | Trace of int  (* acc = acc * 7 + k; print_int(acc); *)
  | If of cond * stmt list * stmt list
  | Chase of cond * stmt list * stmt list  (* then-block ends p = p->next *)
  | While of int * stmt list
  | For of int * stmt list
  | Do of int * stmt list
  | BreakIf of int
  | ContinueIf of int
  | IntArith of int * int * int  (* iA = iA * 31 + iB + k *)
  | FltArith of int * int * int  (* dA = dA * 0.5 + dB + k *)
  | CastFI of int * int  (* iA = (int)(dB * 4.0) *)
  | CastIF of int * int * int  (* dA = (double)iB / k *)
  | AddrInt of int * int  (* int *q = &iA; *q = *q + k *)
  | Print of int * int  (* print_int(iA); print_float(dB); *)
  | Read of obj * int
  | Write of obj * int * int
  | Sink of obj * int
  | VCall of obj * int * int  (* iX = o.get(iX + k) *)
  | FnCall of obj * int
  | Update of place * upd * use
  | PtrCmp of ptr * bool * ptr * bool
      (* if (A == B) / (A != B) { acc = acc + 1; }, B on the left if swapped *)
  | Scan of ptr * ptr * int  (* from A, until s->next == B: acc += k *)

(* what an update changes: an int or double local, a member, or the
   [char] ([true]) or [bool] local, which get out-of-range values *)
and place = ILoc of int | DLoc of int | Fld of obj * int | Narrow of bool

(* an object pointer: [p] ([this] in [get]), [p->next] ([next] in
   [get]), receiver [rJ] and [&oC] ([this] and [next] in [get]), or
   [NULL] *)
and ptr = Cur | Next | RecvP of int | Addr of int | Null

(* [= r], [+= r], [-= r], [*= r], or [++]/[--] (prefix?, increment?) *)
and upd = Set of rhs | Add of rhs | Sub of rhs | Mul of rhs | Step of bool * bool

(* a constant, or a double local (cast for an int place, so the stored
   value arrives boxed) *)
and rhs = K of int | D of int

(* where the updated value goes: nowhere, [print_int]/[print_float],
   or into another local of its kind ([iA = iB = k]) *)
and use = Drop | Shown | Into of int

type cls = {
  parent : int;  (* modulo the class's own index: an earlier class *)
  fields : kind list;
  get : stmt list option;  (* the override's body; [None] inherits *)
}

type recv = { stat : int; dyn : int; heap : bool }

type t = {
  classes : cls list;  (* at least one *)
  has_fn : bool;
  recvs : recv list;  (* at least one *)
  main : stmt list;
}

(* [Any] mixes every shape. The others narrow [main] for a focused
   differential: [Control] to traces and nested branches, loops and
   jumps, [Logic] to the same with every condition over probes, and
   [Banks] to straight-line arithmetic, casts, fields, calls and
   updates. *)
type focus = Any | Control | Logic | Banks

let focused focus =
  let open Gen in
  let small = int_range 0 9 and ii = int_bound 2 and di = int_bound 1 in
  let kind = frequency [ (3, pure Int); (1, pure Double) ] in
  let upd =
    let rhs =
      frequency [ (3, map (fun k -> K k) small); (1, map (fun d -> D d) di) ]
    in
    frequency
      [
        (2, map (fun r -> Set r) rhs);
        (1, map (fun r -> Add r) rhs);
        (1, map (fun r -> Sub r) rhs);
        (1, map (fun r -> Mul r) rhs);
        (2, map2 (fun pre inc -> Step (pre, inc)) bool bool);
      ]
  and use =
    frequency [ (1, pure Drop); (2, pure Shown); (1, map (fun x -> Into x) ii) ]
  in
  let cls =
    map3
      (fun parent fields get -> { parent; fields; get })
      small
      (list_size (int_range 0 3) kind)
      (option
         (list_size (int_range 0 3)
            (frequency
               [
                 (2, map (fun i -> Read (This, i)) small);
                 (2, map2 (fun i k -> Write (This, i, k)) small small);
                 (1, map (fun i -> Sink (This, i)) small);
                 (1, map (fun k -> FnCall (This, k)) small);
                 (2, map3 (fun i u w -> Update (Fld (This, i), u, w)) small upd use);
               ])))
  in
  let recv = map3 (fun stat dyn heap -> { stat; dyn; heap }) small small bool in
  let ptr =
    frequency
      [
        (2, pure Cur);
        (2, pure Next);
        (2, map (fun j -> RecvP j) small);
        (2, map (fun c -> Addr c) small);
        (1, pure Null);
      ]
  in
  let obj =
    frequency
      [
        (2, map (fun c -> Stack c) small);
        (2, map (fun j -> Recv j) small);
        (1, pure Chased);
      ]
  in
  let rec bexpr depth =
    let leaf =
      oneof
        [
          map2 (fun id v -> Probe (id, v)) (int_range 0 99) bool;
          map2 (fun a b -> Cmp (a, b)) (int_bound 5) (int_bound 5);
        ]
    in
    if depth = 0 then leaf
    else
      let sub = bexpr (depth - 1) in
      frequency
        [
          (2, leaf);
          (2, map2 (fun a b -> And (a, b)) sub sub);
          (2, map2 (fun a b -> Or (a, b)) sub sub);
          (1, map (fun a -> Not a) sub);
        ]
  in
  let probes = map (fun b -> Probes b) (bexpr 3) in
  let cond =
    if focus = Logic then probes
    else frequency [ (2, map (fun k -> Mod k) (int_range 2 5)); (1, probes) ]
  in
  let guard = int_range 2 5 and bound = int_range 1 3 in
  let banks =
    [
      (2, map3 (fun a b k -> IntArith (a, b, k)) ii ii small);
      (1, map3 (fun a b k -> FltArith (a, b, k)) di di small);
      (1, map2 (fun a b -> CastFI (a, b)) ii di);
      (1, map3 (fun a b k -> CastIF (a, b, k + 1)) di ii (int_bound 4));
      (1, map2 (fun a k -> AddrInt (a, k)) ii small);
      (1, map2 (fun a b -> Print (a, b)) ii di);
      (2, map2 (fun o i -> Read (o, i)) obj small);
      (2, map3 (fun o i k -> Write (o, i, k)) obj small small);
      (1, map2 (fun o i -> Sink (o, i)) obj small);
      (2, map3 (fun o x k -> VCall (o, x, k)) obj ii small);
      (1, map2 (fun o k -> FnCall (o, k)) obj small);
      ( 1,
        let+ a = ptr and+ eq = bool and+ b = ptr and+ swap = bool in
        PtrCmp (a, eq, b, swap) );
      ( 3,
        map3
          (fun p u w -> Update (p, u, w))
          (frequency
             [
               (2, map (fun a -> ILoc a) ii);
               (1, map (fun a -> DLoc a) di);
               (2, map2 (fun o i -> Fld (o, i)) obj small);
               (1, map (fun c -> Narrow c) bool);
             ])
          upd use );
    ]
  in
  let rec stmt ~in_loop depth =
    let block ~in_loop = list_size (int_range 1 3) (stmt ~in_loop (depth - 1)) in
    frequency
      ((3, map (fun k -> Trace k) (int_range 0 99))
       :: (if focus = Any || focus = Banks then banks else [])
      @ (if in_loop && focus <> Banks then
           [
             (1, map (fun k -> BreakIf k) guard);
             (1, map (fun k -> ContinueIf k) guard);
           ]
         else [])
      @
      if depth = 0 || focus = Banks then []
      else
        let branch f = map3 f cond (block ~in_loop) (block ~in_loop) in
        (if focus = Logic then []
         else [ (1, map3 (fun a b k -> Scan (a, b, k)) ptr ptr small) ])
        @ [
          (2, branch (fun c a b -> If (c, a, b)));
          (2, branch (fun c a b -> Chase (c, a, b)));
          (1, map2 (fun n b -> While (n, b)) bound (block ~in_loop:true));
          (1, map2 (fun n b -> For (n, b)) bound (block ~in_loop:true));
          (1, map2 (fun n b -> Do (n, b)) bound (block ~in_loop:true));
        ])
  in
  let+ classes = list_size (int_range 1 4) cls
  and+ has_fn = bool
  and+ recvs = list_size (int_range 1 3) recv
  and+ main = list_size (int_range 1 8) (stmt ~in_loop:false 3) in
  { classes; has_fn; recvs; main }

let gen = focused Any

(* -- rendering and facts --------------------------------------------------- *)

type member = string * string

(* The source, and every member declaration and use in it: (member,
   [`Decl], [`Read] or [`Write], whether in [main]). *)
let emit t =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let uses = ref [] in
  let use ?(main = true) what m = uses := (m, what, main) :: !uses in
  let n = List.length t.classes in
  let cls c = List.nth t.classes c in
  let parent c = if c = 0 then -1 else (cls c).parent mod c in
  let rec ancestors c = if c < 0 then [] else c :: ancestors (parent c) in
  let field c i = (Printf.sprintf "K%d" c, Printf.sprintf "x%d_%d" c i) in
  let visible c =
    List.concat_map
      (fun a -> List.mapi (fun i k -> (field a i, k)) (cls a).fields)
      (ancestors c)
  in
  let pick l i = List.nth_opt l (i mod max 1 (List.length l)) in
  let next = ("K0", "next") and fn = ("K0", "fn") in
  (* receiver [j]: static class, dynamic class, on the heap *)
  let recv j =
    let r = List.nth t.recvs (j mod List.length t.recvs) in
    let anc = ancestors (r.dyn mod n) in
    (List.nth anc (r.stat mod List.length anc), r.dyn mod n, r.heap)
  in
  let target c = if c mod 2 = 0 then "twice" else "inc" in
  let fresh = ref 0 in
  let fresh () =
    incr fresh;
    !fresh
  in
  let rec bexpr = function
    | Probe (id, v) -> Printf.sprintf "probe(%d, %d)" id (Bool.to_int v)
    | Cmp (a, b) -> Printf.sprintf "(%d < %d)" a b
    | And (a, b) -> Printf.sprintf "(%s && %s)" (bexpr a) (bexpr b)
    | Or (a, b) -> Printf.sprintf "(%s || %s)" (bexpr a) (bexpr b)
    | Not a -> Printf.sprintf "(!%s)" (bexpr a)
  in
  let cond = function
    | Mod k -> Printf.sprintf "acc %% %d == 0" k
    | Probes b -> bexpr b
  in
  (* [cur] is the class whose [get] holds the statement, -1 in [main] *)
  let rec stmt ~cur ind s =
    let line fmt = pr ("%s" ^^ fmt ^^ "\n") ind in
    let block b = List.iter (stmt ~cur (ind ^ "  ")) b in
    let use = use ~main:(cur < 0) in
    let via = function
      | Stack c -> (c mod n, Printf.sprintf "o%d." (c mod n))
      | Recv j ->
          let stat, _, _ = recv j in
          (stat, Printf.sprintf "r%d->" (j mod List.length t.recvs))
      | Chased -> (0, "p->")
      | This -> (cur, "")
    in
    (* the [i]th member [o]'s static class sees, if there is one *)
    let member ?(ints = false) o i f =
      let stat, via = via o in
      let vis = visible stat in
      Option.iter
        (fun (m, k) -> f (via ^ snd m) (k = Int) m)
        (pick (if ints then List.filter (fun (_, k) -> k = Int) vis else vis) i)
    in
    (* an object pointer as source text. [k0] keeps to [K0*] or [NULL],
       so that it compares with any pointer; [ring] keeps to the ring of
       stack objects, or to [get]'s [this] and [next] (a heap [this] has
       a [NULL] [next]), so that a scan for it ends *)
    let ptr ?(k0 = false) ?(ring = false) a =
      if cur < 0 then
        match a with
        | Cur -> "p"
        | Next ->
            use `Read next;
            "p->next"
        | RecvP _ when k0 || ring -> "p"
        | RecvP j -> Printf.sprintf "r%d" (j mod List.length t.recvs)
        | Addr _ when k0 -> "p"
        | Addr c -> Printf.sprintf "&o%d" (c mod n)
        | Null -> if ring then "p" else "NULL"
      else
        match a with
        | Cur | RecvP _ -> "this"
        | Next | Addr _ ->
            use `Read next;
            "next"
        | Null -> if ring then "this" else "NULL"
    in
    match s with
    | Trace k -> line "acc = acc * 7 + %d; print_int(acc);" k
    | If (c, a, b) | Chase (c, a, b) ->
        line "if (%s) {" (cond c);
        block a;
        (match s with
        | Chase _ ->
            use `Read next;
            line "  p = p->next;"
        | _ -> ());
        line "} else {";
        block b;
        line "}"
    | While (bound, b) ->
        let v = fresh () in
        line "int w%d = 0;" v;
        line "while (w%d < %d) {" v bound;
        line "  w%d = w%d + 1;" v v;
        block b;
        line "}"
    | For (bound, b) ->
        let v = fresh () in
        line "for (int t%d = 0; t%d < %d; t%d = t%d + 1) {" v v bound v v;
        block b;
        line "}"
    | Do (bound, b) ->
        let v = fresh () in
        line "int w%d = 0;" v;
        line "do {";
        line "  w%d = w%d + 1;" v v;
        block b;
        line "} while (w%d < %d);" v bound
    | BreakIf k -> line "if (acc %% %d == 0) { break; }" k
    | ContinueIf k -> line "acc = acc + 1; if (acc %% %d == 0) { continue; }" k
    | IntArith (a, b, k) -> line "i%d = i%d * 31 + i%d + %d;" a a b k
    | FltArith (a, b, k) -> line "d%d = d%d * 0.5 + d%d + %d.0;" a a b k
    | CastFI (a, b) -> line "i%d = (int)(d%d * 4.0);" a b
    | CastIF (a, b, k) -> line "d%d = (double)i%d / %d.0;" a b k
    | AddrInt (a, k) ->
        let v = fresh () in
        line "int *q%d = &i%d; *q%d = *q%d + %d;" v a v v k
    | Print (a, b) -> line "print_int(i%d); print_float(d%d);" a b
    | Read (o, i) ->
        member o i (fun e is_int m ->
            use `Read m;
            if is_int then line "acc = acc + %s;" e
            else line "d0 = d0 * 0.5 + %s;" e)
    | Write (o, i, v) ->
        member o i (fun e is_int m ->
            use `Write m;
            if is_int then line "%s = probe(%d, acc %% 100);" e v
            else line "%s = d1 * 0.5 + %d.0;" e v)
    | Sink (o, i) ->
        member ~ints:true o i (fun e _ m ->
            use `Read m;
            line "acc = acc + sink(&%s);" e)
    | VCall (o, x, k) -> line "i%d = %sget(i%d + %d);" x (snd (via o)) x k
    | FnCall (o, k) when t.has_fn -> (
        use `Read fn;
        match (o, via o) with
        | Recv _, (_, e) -> line "acc = acc + (%sfn)(acc %% 16 + %d);" e k
        | _, (_, e) -> line "acc = acc + %sfn(acc %% 16 + %d);" e k)
    | FnCall _ -> ()
    | PtrCmp (a, eq, b, swap) ->
        let a = ptr a and b = ptr ~k0:true b in
        let a, b = if swap then (b, a) else (a, b) in
        line "if (%s %s %s) { acc = acc + 1; }" a (if eq then "==" else "!=") b
    | Scan (a, b, k) ->
        let v = fresh () in
        line "K0 *s%d = %s;" v (ptr a);
        line "K0 *u%d = %s;" v (ptr ~ring:true b);
        use `Read next;
        line "while (s%d != NULL) {" v;
        line "  if (s%d->next == u%d) { acc = acc + %d; break; }" v v k;
        line "  s%d = s%d->next;" v v;
        line "}"
    | Update (p, u, w) ->
        (* the place as source text, its kind, and the member it names *)
        let update e is_int m =
          let k = function
            | D d -> Printf.sprintf (if is_int then "(int)d%d" else "d%d") d
            | K n -> (
                match p with
                | Narrow true -> Printf.sprintf "%d" (250 + n)
                | Narrow false -> Printf.sprintf "%d" (2 + n)
                | _ -> Printf.sprintf (if is_int then "%d" else "%d.5") n)
          in
          let x =
            match u with
            | Set n -> Printf.sprintf "%s = %s" e (k n)
            | Add n -> Printf.sprintf "%s += %s" e (k n)
            | Sub n -> Printf.sprintf "%s -= %s" e (k n)
            | Mul n -> Printf.sprintf "%s *= %s" e (k n)
            | Step (_, inc) when p = Narrow false ->
                Printf.sprintf "%s %s= 1" e (if inc then "+" else "-")
            | Step (pre, inc) ->
                let op = if inc then "++" else "--" in
                if pre then op ^ e else e ^ op
          in
          Option.iter
            (fun m ->
              use `Write m;
              (* a compound update or ++/-- reads the old value *)
              match u with Set _ -> () | _ -> use `Read m)
            m;
          match w with
          | Drop -> line "%s;" x
          | Shown -> line "print_%s(%s);" (if is_int then "int" else "float") x
          | Into j when is_int ->
              if cur < 0 then line "i%d = %s;" j x else line "acc = %s;" x
          | Into j -> line "d%d = %s;" (j mod 2) x
        in
        match p with
        | ILoc a -> update (Printf.sprintf "i%d" a) true None
        | DLoc a -> update (Printf.sprintf "d%d" a) false None
        | Narrow c -> update (if c then "c0" else "b0") true None
        | Fld (o, i) -> member o i (fun e is_int m -> update e is_int (Some m))
  in
  for c = 0 to n - 1 do
    if c = 0 then pr "class K0 {\npublic:\n"
    else pr "class K%d : public K%d {\npublic:\n" c (parent c);
    List.iteri
      (fun i k ->
        use `Decl (field c i);
        pr "  %s %s;\n" (if k = Int then "int" else "double") (snd (field c i)))
      (cls c).fields;
    if c = 0 then (
      use `Decl next;
      pr "  K0 *next;\n";
      if t.has_fn then (
        use `Decl fn;
        pr "  int (*fn)(int);\n"));
    Option.iter
      (fun body ->
        pr "  virtual int get(int k) {\n";
        pr "    int acc = k;\n    double d0 = 0.5;\n    double d1 = 1.5;\n";
        List.iter (stmt ~cur:c "    ") body;
        pr "    return acc + (int)d0;\n  }\n")
      (if c = 0 then Some (Option.value ~default:[] (cls 0).get) else (cls c).get);
    pr "};\n"
  done;
  pr "int sink(int *q) { return *q; }\n";
  pr "int probe(int id, int v) { print_int(id); return v; }\n";
  pr "int twice(int x) { return 2 * x; }\n";
  pr "int inc(int x) { return x + 1; }\n";
  pr "int main() {\n  int acc = 1;\n  int i0 = 1;\n  int i1 = 2;\n  int i2 = 3;\n";
  pr "  double d0 = 1.5;\n  double d1 = 2.5;\n  char c0 = 7;\n  bool b0 = true;\n";
  for c = 0 to n - 1 do pr "  K%d o%d;\n" c c done;
  for c = 0 to n - 1 do
    use `Write next;
    pr "  o%d.next = &o%d;\n" c ((c + 1) mod n);
    if t.has_fn then (
      use `Write fn;
      pr "  o%d.fn = %s;\n" c (target c))
  done;
  List.iteri
    (fun j _ ->
      match recv j with
      | stat, dyn, true ->
          pr "  K%d *r%d = new K%d();\n" stat j dyn;
          if t.has_fn then (
            use `Write fn;
            pr "  r%d->fn = %s;\n" j (target (dyn + 1)))
      | stat, dyn, false -> pr "  K%d *r%d = &o%d;\n" stat j dyn)
    t.recvs;
  pr "  K0 *p = &o0;\n";
  List.iter (stmt ~cur:(-1) "  ") t.main;
  pr "  print_int(i0); print_int(i1); print_int(i2);\n";
  pr "  print_float(d0); print_float(d1);\n  print_int(c0); print_int(b0);\n";
  pr "  print_int(acc);\n";
  List.iteri
    (fun j _ -> match recv j with _, _, true -> pr "  delete r%d;\n" j | _ -> ())
    t.recvs;
  pr "  return acc %% 200;\n}\n";
  (Buffer.contents buf, !uses)

let render t = fst (emit t)

(* What the liveness properties need: the members [main] reads (or whose
   address it takes), the members no code names, and the members that
   are written but never read anywhere. *)
type facts = {
  read_in_main : member list;
  never_named : member list;
  write_only : member list;
}

let facts t =
  let uses = snd (emit t) in
  let members =
    List.filter_map (fun (m, w, _) -> if w = `Decl then Some m else None) uses
  in
  let used m p = List.exists (fun (m', w, main) -> m' = m && p w main) uses in
  let where p = List.filter (fun m -> p (used m)) members in
  {
    read_in_main = where (fun used -> used (fun w main -> w = `Read && main));
    never_named = where (fun used -> not (used (fun w _ -> w <> `Decl)));
    write_only =
      where (fun used ->
          used (fun w _ -> w = `Write) && not (used (fun w _ -> w = `Read)));
  }
