(* Host unit costs of single layers, timed from outside: each is a loop
   of calls into one layer's public functions, reported in host
   nanoseconds per call as the median of [reps] repetitions. The DRC,
   acquire-retire and hazard-pointer cases are the operations of the
   Bechamel suite in bench/main.ml, run here as plain timed loops. *)

module M = Simcore.Memory
module Sim = Simcore.Sim
module Proc = Simcore.Proc
module Vm = Simcore.Vm
module Drc = Cdrc.Drc

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [measure f] runs [f ()] [reps] times; [f] does its work and returns
   how many unit operations it performed. *)
let measure f =
  median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         let n = f () in
         let t1 = Unix.gettimeofday () in
         (t1 -. t0) *. 1e9 /. float_of_int (max 1 n)))

let loop n f () =
  for _ = 1 to n do
    f ()
  done;
  n

(* {1 Scheduler} *)

(* Every pay is a full scheduler round: eight processes contend for the
   machine and the fast path is off, so each pay suspends. *)
let sched_round () =
  let r =
    Sim.run ~fastpath:false ~config:Simcore.Config.default ~procs:8 (fun _ ->
        for _ = 1 to 20_000 do
          Proc.pay 1
        done)
  in
  r.Sim.steps

(* One process under the fast path: every pay fits the run-ahead budget
   and is elided without a suspension. *)
let sched_pay_elided () =
  let r =
    Sim.run ~config:Simcore.Config.default ~procs:1 (fun _ ->
        for _ = 1 to 1_000_000 do
          Proc.pay 1
        done)
  in
  r.Sim.steps

(* {1 VM dispatch: an ALU + PAYI loop} *)

let vm_iters = 500_000

let vm_program =
  lazy
    (let a = Vm.Asm.create () in
     let r = Vm.Asm.reg a in
     let loop = Vm.Asm.label a in
     Vm.Asm.movi a r 0;
     Vm.Asm.place a loop;
     Vm.Asm.addi a r r 1;
     Vm.Asm.payi a 1;
     Vm.Asm.blti a r vm_iters loop;
     Vm.Asm.halt a;
     Vm.Asm.assemble a)

let vm_instr () =
  let prog = Lazy.force vm_program in
  let mem = M.create Simcore.Config.default in
  ignore
    (Sim.run ~config:Simcore.Config.default ~procs:1 (fun _ ->
         Vm.exec prog
           (Vm.frame prog ~mem ~rng:(Proc.rng ())
              ~cells:(Array.make prog.Vm.n_cells 0))));
  (3 * vm_iters) + 2

(* {1 Memory + coherence, allocator, SMR, acquire-retire, DRC}

   Outside a simulation, so the scheduler's pay is not in these
   figures. *)

let mem_env () =
  let mem = M.create Simcore.Config.default in
  let a = M.alloc mem ~tag:"unit" ~size:1 in
  (mem, a)

let mem_read () =
  let mem, a = mem_env () in
  loop 1_000_000 (fun () -> ignore (M.read mem a)) ()

let mem_cas () =
  let mem, a = mem_env () in
  loop 1_000_000 (fun () -> ignore (M.cas mem a ~expected:0 ~desired:0)) ()

let mem_faa () =
  let mem, a = mem_env () in
  loop 1_000_000 (fun () -> ignore (M.faa mem a 1)) ()

let alloc_pair () =
  let mem = M.create (Simcore.Config.with_alloc Simcore.Config.default) in
  loop 500_000 (fun () -> M.free mem (M.alloc mem ~tag:"unit" ~size:2)) ()

let drc_env () =
  let mem = M.create Simcore.Config.default in
  let drc = Drc.create mem ~procs:4 in
  let cls = Drc.register_class drc ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"cell" ~n:1 in
  let h = Drc.handle drc 0 in
  Drc.store h cell (Drc.make h cls [| 1 |]);
  (mem, drc, cls, cell, h)

let hp_protect () =
  let mem, _, _, cell, _ = drc_env () in
  let hp =
    Smr.Hp.create mem ~procs:4
      ~params:{ Smr.Smr_intf.slots = 3; batch = 64; era_freq = 32 }
  in
  let h = Smr.Hp.handle hp 0 in
  loop 300_000
    (fun () ->
      ignore (Smr.Hp.protect_read h ~slot:0 cell);
      Smr.Hp.clear h ~slot:0)
    ()

let ar_acquire_release () =
  let _, drc, _, cell, _ = drc_env () in
  let h = Acquire_retire.Ar.handle (Drc.ar drc) 1 in
  loop 300_000
    (fun () ->
      ignore (Acquire_retire.Ar.acquire h ~slot:0 cell);
      Acquire_retire.Ar.release h ~slot:0)
    ()

let drc_load () =
  let _, _, _, cell, h = drc_env () in
  loop 300_000 (fun () -> Drc.destruct h (Drc.load h cell)) ()

let drc_store () =
  let _, _, cls, cell, h = drc_env () in
  loop 100_000 (fun () -> Drc.store h cell (Drc.make h cls [| 2 |])) ()

let drc_snapshot () =
  let _, _, _, cell, h = drc_env () in
  loop 300_000 (fun () -> Drc.release_snapshot h (Drc.get_snapshot h cell)) ()

(* Metric name and workload, in report order. *)
let cases =
  [
    ("sched.round_ns", sched_round);
    ("sched.pay_elided_ns", sched_pay_elided);
    ("vm.instr_ns", vm_instr);
    ("mem.read_ns", mem_read);
    ("mem.cas_ns", mem_cas);
    ("mem.faa_ns", mem_faa);
    ("alloc.pair_ns", alloc_pair);
    ("hp.protect_ns", hp_protect);
    ("ar.acquire_release_ns", ar_acquire_release);
    ("drc.load_ns", drc_load);
    ("drc.store_ns", drc_store);
    ("drc.snapshot_ns", drc_snapshot);
  ]
