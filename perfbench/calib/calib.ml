(* Host-speed calibration. The host this benchmark was written on is
   shared, and its speed drifts by up to 1.8x over minutes. A fixed loop
   timed in the same process, around each batch, tracks that drift, so host
   times are reported scaled to a host on which the loop takes
   [reference_ns] per instruction. Over ten 25 s runs of rc_read_mostly
   the throughput spread 0.349 (quartile distance over median) unscaled
   and 0.053 scaled by one factor per launch; scaled per batch, as
   perfbench.ml does, two sets of ten runs spread 0.037 and 0.032. The loop
   is a small bytecode interpreter — branchy dispatch over a register file
   and a 32 KB table, allocating nothing.

   Limitation: a change that speeds up all compiled OCaml code alike — a
   new compiler version, flambda, a different code generator — speeds up
   this loop too, and the scaled figures then hide part of the gain. The
   loop is built with its own fixed flags (see dune), so compiler flags
   set for the program under test do not reach it; [ab.py] compares two
   builds on the unscaled figures, which pairing already protects from
   drift. *)

let reference_ns = 4.0

let prog = [| 0; 1; 2; 3; 1; 0; 2; 4; 3; 1; 0; 5 |]

let iterations = 200_000

let regs = Array.make 8 1

let mem = Array.make 4096 0

let once () =
  Array.fill regs 0 8 1;
  Array.fill mem 0 4096 0;
  let t0 = Unix.gettimeofday () in
  for it = 1 to iterations do
    for pc = 0 to Array.length prog - 1 do
      match Array.unsafe_get prog pc with
      | 0 -> regs.(0) <- regs.(0) + it
      | 1 -> regs.(1) <- regs.(1) lxor (regs.(0) lsl 3)
      | 2 ->
          let k = regs.(1) land 4095 in
          mem.(k) <- mem.(k) + regs.(0)
      | 3 -> regs.(2) <- regs.(2) + mem.(regs.(0) * 7 land 4095)
      | 4 ->
          if regs.(2) land 1 = 0 then regs.(3) <- regs.(3) + 1
          else regs.(4) <- regs.(4) + 1
      | _ -> regs.(5) <- ((regs.(5) * 31) + regs.(2)) land 0xFFFFFF
    done
  done;
  (Unix.gettimeofday () -. t0)
  *. 1e9
  /. float_of_int (iterations * Array.length prog)

(* Host nanoseconds per interpreted instruction: the median of 3 runs. *)
let ns () =
  match List.sort compare (List.init 3 (fun _ -> once ())) with
  | [ _; m; _ ] -> m
  | _ -> assert false
