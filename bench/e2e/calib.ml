(* CPU speed, measured the moment before work is timed.

   On a shared host the same code runs at different speeds from one
   second to the next: on a 2-vCPU Xeon guest, a fixed loop alternates
   between two speeds about 1.45x apart in phases of one or two seconds,
   and the mix drifts over minutes with the other tenants' load. Wall times
   taken as they come then differ by 20-30% between runs of the same
   build. So every op's wall time is scaled by [speed ()], taken just
   before it: the ratio of [reference] to the time this fixed loop takes
   now. A scaled time is the op's time on a CPU that runs the loop in
   [reference] seconds. The loop is the benchmark's own code, so a change
   to the program under test cannot move it. *)

let reference = 300e-6

let code = [| 0; 1; 2; 3; 1; 4; 2; 0; 3; 5 |]

(* Dispatch over a small instruction array, plus short-lived allocation. *)
let kernel () =
  let acc = ref 0 and sp = ref 0 and stack = Array.make 64 0 in
  let cells = ref [] in
  for i = 1 to 12_000 do
    for pc = 0 to Array.length code - 1 do
      match code.(pc) with
      | 0 -> stack.(!sp) <- i; incr sp
      | 1 -> if !sp > 0 then (decr sp; acc := !acc + stack.(!sp))
      | 2 -> acc := !acc lxor (i lsl 3)
      | 3 -> stack.(!sp) <- !acc land 1023; incr sp; if !sp > 60 then sp := 0
      | 4 -> acc := (!acc * 31) + pc
      | _ -> acc := !acc lsr 1
    done;
    if i land 7 = 0 then cells := (i, !acc) :: (if i land 1023 = 0 then [] else !cells)
  done;
  !acc + List.length !cells

let sample () =
  let t0 = Osproc.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Osproc.now () -. t0

(* [reference] over the loop's time now; [samples] > 1 takes the median,
   so one interrupt cannot skew it. *)
let speed ?(samples = 1) () =
  reference /. Stats.median (List.init samples (fun _ -> sample ()))
