(* A register machine over flat int-array instruction streams, used to
   run the benchmarks' inner loops without re-entering the closure
   interpreter on every simulated instruction.

   The workload drivers compile their hot loop (pick a location, run one
   scheme operation, bump the op counter, maybe sample) into [code]
   once per process, then [exec] dispatches it in a tight loop that
   touches only unboxed ints: registers, the shared {!Memcore} arrays,
   and a local tick accumulator. Everything that is rare or cold — an
   allocation, a reclamation scan, a sampling callback — stays an
   ordinary OCaml closure invoked by the [HOST] opcode.

   Two invariants make the compiled path bit-identical to the closure
   path (which remains as the differential oracle, see [test_vm]):

   - {b Pays are exact, only batched.} [PAYI]/[PAYR] and the memory
     opcodes charge the same tick sequence as {!Proc.pay}: a pay inside
     the granted run-ahead budget is elided (drawn from [env.budget]) and
     accumulated locally; any other pay, and every [HOST]/[HALT]/fault,
     first flushes the accumulator through [env.bulk_pay] — one clock
     update standing for the whole run of elided pays — and then behaves
     exactly like the closure path. A pay that exhausts the budget
     performs the {!Proc.Pay} effect from inside the dispatch loop; the
     whole loop is part of the process's fiber, so it suspends and
     resumes mid-instruction like any other simulated code.
   - {b Memory opcodes mirror {!Memory} exactly}: coherence cost, then
     pay, then validation, then the array access — with the sanitizer on
     ([Memcore.san_on]) the opcode instead defers to the {!Memory} entry
     point, so shadow/protocol hooks and fault reports are identical.
     An inline validation failure re-raises through
     {!Memory.validate_addr}, producing the very same {!Memory.Fault}. *)

(* Outcome of running a host call in its own one-shot fiber: either it
   returned, or it performed a pay the dispatch loop must yield to the
   scheduler before continuing it (the thunk wraps the continuation). *)
type hosted = H_done | H_pay of int * (unit -> hosted)

type frame = {
  regs : int array;
  cells : int array;
  rng : Rng.t;
  mem : Memory.t;
  hc : Memcore.t;
  (* Resumption state: where the dispatch loop re-enters after a yield.
     [paid] marks a memory opcode whose cost was already charged (the
     re-dispatch skips straight to the access); [pending] a host call
     suspended mid-flight. *)
  mutable pc : int;
  mutable paid : bool;
  (* Elided-pay accumulator ([acc] ticks over [npays] pays) and the
     amount of an in-flight yield: frame fields rather than closure
     cells so a resume touches the one line the frame already owns. *)
  mutable acc : int;
  mutable npays : int;
  mutable yn : int;
  mutable pending : (unit -> hosted) option;
}

type program = {
  code : int array;
  tables : int array array;
  fconsts : float array;
  hosts : (frame -> unit) array;
  counters : (int * Telemetry.counter) array;
  n_regs : int;
  n_cells : int;
}

let frame p ~mem ~rng ~cells =
  assert (Array.length cells >= p.n_cells);
  {
    regs = Array.make (max 1 p.n_regs) 0;
    cells;
    rng;
    mem;
    hc = Memory.hot mem;
    pc = 0;
    paid = false;
    acc = 0;
    npays = 0;
    yn = 0;
    pending = None;
  }

let flush_counters p fr =
  Array.iter
    (fun (cell, c) ->
      Telemetry.add c fr.cells.(cell);
      fr.cells.(cell) <- 0)
    p.counters

(* {1 Instruction set}

   Dense opcodes, operands inline in the stream. [r*] operands are
   register indices, [i] immediates (raw ints), [t] branch targets
   (absolute code indices), [#] host/table/fconst indices. *)

let op_halt = 0

let op_jmp = 1 (* t *)

let op_beq = 2 (* r1 r2 t *)

let op_bne = 3

let op_blt = 4

let op_bge = 5

let op_beqi = 6 (* r i t *)

let op_bnei = 7

let op_blti = 8

let op_bgei = 9

let op_movi = 10 (* rd i *)

let op_mov = 11 (* rd rs *)

let op_add = 12 (* rd r1 r2 *)

let op_addi = 13 (* rd rs i *)

let op_sub = 14 (* rd r1 r2 *)

let op_shli = 15 (* rd rs i *)

let op_shri = 16 (* rd rs i; logical *)

let op_andi = 17 (* rd rs i *)

let op_read = 18 (* rd ra *)

let op_write = 19 (* ra rv *)

let op_cas = 20 (* rd ra re rv; rd = 0/1 *)

let op_faa = 21 (* rd ra rdelta *)

let op_faai = 22 (* rd ra i *)

let op_fas = 23 (* rd ra rv *)

let op_cas2 = 24 (* rd ra re0 re1 rd0 rd1 *)

let op_payi = 25 (* i *)

let op_payr = 26 (* r *)

let op_now = 27 (* rd *)

let op_rngi = 28 (* rd i: Rng.int *)

let op_rngb = 29 (* rd #f: Rng.below, 0/1 *)

let op_host = 30 (* #h *)

let op_tab = 31 (* rd #t ri *)

let op_cellld = 32 (* rd #c *)

let op_cellst = 33 (* #c rs *)

let op_cellinc = 34 (* #c i *)

let op_ori = 35 (* rd rs i *)

let n_opcodes = 36

(* Operand count per opcode (instruction size minus one). *)
let arity =
  [|
    0; 1; 3; 3; 3; 3; 3; 3; 3; 3; 2; 2; 3; 3; 3; 3; 3; 3; 2; 2; 4; 3; 3; 3;
    6; 1; 1; 1; 2; 2; 1; 3; 2; 2; 2; 3;
  |]

let () = assert (Array.length arity = n_opcodes)

(* {1 Symbolic instructions}

   Used by the round-trip tests and the disassembler; the assembler
   below emits the packed stream directly. *)

type instr =
  | Halt
  | Jmp of int
  | Beq of int * int * int
  | Bne of int * int * int
  | Blt of int * int * int
  | Bge of int * int * int
  | Beqi of int * int * int
  | Bnei of int * int * int
  | Blti of int * int * int
  | Bgei of int * int * int
  | Movi of int * int
  | Mov of int * int
  | Add of int * int * int
  | Addi of int * int * int
  | Sub of int * int * int
  | Shli of int * int * int
  | Shri of int * int * int
  | Andi of int * int * int
  | Ori of int * int * int
  | Read of int * int
  | Write of int * int
  | Cas of int * int * int * int
  | Faa of int * int * int
  | Faai of int * int * int
  | Fas of int * int * int
  | Cas2 of int * int * int * int * int * int
  | Payi of int
  | Payr of int
  | Now of int
  | Rngi of int * int
  | Rngb of int * int
  | Host of int
  | Tab of int * int * int
  | Cellld of int * int
  | Cellst of int * int
  | Cellinc of int * int

let encode instrs =
  let rev = ref [] in
  let push l = rev := List.rev_append l !rev in
  List.iter
    (fun i ->
      push
        (match i with
        | Halt -> [ op_halt ]
        | Jmp t -> [ op_jmp; t ]
        | Beq (a, b, t) -> [ op_beq; a; b; t ]
        | Bne (a, b, t) -> [ op_bne; a; b; t ]
        | Blt (a, b, t) -> [ op_blt; a; b; t ]
        | Bge (a, b, t) -> [ op_bge; a; b; t ]
        | Beqi (r, i, t) -> [ op_beqi; r; i; t ]
        | Bnei (r, i, t) -> [ op_bnei; r; i; t ]
        | Blti (r, i, t) -> [ op_blti; r; i; t ]
        | Bgei (r, i, t) -> [ op_bgei; r; i; t ]
        | Movi (rd, i) -> [ op_movi; rd; i ]
        | Mov (rd, rs) -> [ op_mov; rd; rs ]
        | Add (rd, a, b) -> [ op_add; rd; a; b ]
        | Addi (rd, rs, i) -> [ op_addi; rd; rs; i ]
        | Sub (rd, a, b) -> [ op_sub; rd; a; b ]
        | Shli (rd, rs, i) -> [ op_shli; rd; rs; i ]
        | Shri (rd, rs, i) -> [ op_shri; rd; rs; i ]
        | Andi (rd, rs, i) -> [ op_andi; rd; rs; i ]
        | Ori (rd, rs, i) -> [ op_ori; rd; rs; i ]
        | Read (rd, ra) -> [ op_read; rd; ra ]
        | Write (ra, rv) -> [ op_write; ra; rv ]
        | Cas (rd, ra, re, rv) -> [ op_cas; rd; ra; re; rv ]
        | Faa (rd, ra, rdl) -> [ op_faa; rd; ra; rdl ]
        | Faai (rd, ra, i) -> [ op_faai; rd; ra; i ]
        | Fas (rd, ra, rv) -> [ op_fas; rd; ra; rv ]
        | Cas2 (rd, ra, e0, e1, d0, d1) -> [ op_cas2; rd; ra; e0; e1; d0; d1 ]
        | Payi i -> [ op_payi; i ]
        | Payr r -> [ op_payr; r ]
        | Now rd -> [ op_now; rd ]
        | Rngi (rd, i) -> [ op_rngi; rd; i ]
        | Rngb (rd, f) -> [ op_rngb; rd; f ]
        | Host h -> [ op_host; h ]
        | Tab (rd, t, ri) -> [ op_tab; rd; t; ri ]
        | Cellld (rd, c) -> [ op_cellld; rd; c ]
        | Cellst (c, rs) -> [ op_cellst; c; rs ]
        | Cellinc (c, i) -> [ op_cellinc; c; i ]))
    instrs;
  Array.of_list (List.rev !rev)

let decode code =
  let n = Array.length code in
  let rec go pc acc =
    if pc = n then Some (List.rev acc)
    else begin
      let op = code.(pc) in
      if op < 0 || op >= n_opcodes || pc + arity.(op) >= n then None
      else begin
        let a i = code.(pc + i) in
        let instr =
          if op = op_halt then Halt
          else if op = op_jmp then Jmp (a 1)
          else if op = op_beq then Beq (a 1, a 2, a 3)
          else if op = op_bne then Bne (a 1, a 2, a 3)
          else if op = op_blt then Blt (a 1, a 2, a 3)
          else if op = op_bge then Bge (a 1, a 2, a 3)
          else if op = op_beqi then Beqi (a 1, a 2, a 3)
          else if op = op_bnei then Bnei (a 1, a 2, a 3)
          else if op = op_blti then Blti (a 1, a 2, a 3)
          else if op = op_bgei then Bgei (a 1, a 2, a 3)
          else if op = op_movi then Movi (a 1, a 2)
          else if op = op_mov then Mov (a 1, a 2)
          else if op = op_add then Add (a 1, a 2, a 3)
          else if op = op_addi then Addi (a 1, a 2, a 3)
          else if op = op_sub then Sub (a 1, a 2, a 3)
          else if op = op_shli then Shli (a 1, a 2, a 3)
          else if op = op_shri then Shri (a 1, a 2, a 3)
          else if op = op_andi then Andi (a 1, a 2, a 3)
          else if op = op_ori then Ori (a 1, a 2, a 3)
          else if op = op_read then Read (a 1, a 2)
          else if op = op_write then Write (a 1, a 2)
          else if op = op_cas then Cas (a 1, a 2, a 3, a 4)
          else if op = op_faa then Faa (a 1, a 2, a 3)
          else if op = op_faai then Faai (a 1, a 2, a 3)
          else if op = op_fas then Fas (a 1, a 2, a 3)
          else if op = op_cas2 then Cas2 (a 1, a 2, a 3, a 4, a 5, a 6)
          else if op = op_payi then Payi (a 1)
          else if op = op_payr then Payr (a 1)
          else if op = op_now then Now (a 1)
          else if op = op_rngi then Rngi (a 1, a 2)
          else if op = op_rngb then Rngb (a 1, a 2)
          else if op = op_host then Host (a 1)
          else if op = op_tab then Tab (a 1, a 2, a 3)
          else if op = op_cellld then Cellld (a 1, a 2)
          else if op = op_cellst then Cellst (a 1, a 2)
          else begin
            assert (op = op_cellinc);
            Cellinc (a 1, a 2)
          end
        in
        go (pc + 1 + arity.(op)) (instr :: acc)
      end
    end
  in
  go 0 []

(* {1 Assembler} *)

module Asm = struct
  type t = {
    mutable code : int array;
    mutable len : int;
    mutable n_regs : int;
    mutable label_pos : int array;  (* label -> code index; -1 unplaced *)
    mutable n_labels : int;
    mutable patches : (int * int) list;  (* operand index, label *)
    mutable hosts_rev : (frame -> unit) list;
    mutable n_hosts : int;
    mutable tables_rev : int array list;
    mutable n_tables : int;
    mutable fconsts_rev : float list;
    mutable n_fconsts : int;
    mutable counters_rev : (int * Telemetry.counter) list;
    mutable n_cells : int;
  }

  let create ?(cells = 0) () =
    {
      code = Array.make 64 0;
      len = 0;
      n_regs = 0;
      label_pos = Array.make 8 (-1);
      n_labels = 0;
      patches = [];
      hosts_rev = [];
      n_hosts = 0;
      tables_rev = [];
      n_tables = 0;
      fconsts_rev = [];
      n_fconsts = 0;
      counters_rev = [];
      n_cells = cells;
    }

  let reg a =
    let r = a.n_regs in
    a.n_regs <- r + 1;
    r

  let cell a =
    let c = a.n_cells in
    a.n_cells <- c + 1;
    c

  let counter_cell a c =
    let idx = cell a in
    a.counters_rev <- (idx, c) :: a.counters_rev;
    idx

  let label a =
    if a.n_labels >= Array.length a.label_pos then
      a.label_pos <-
        Memcore.grow_array a.label_pos ~needed:(a.n_labels + 1) ~fill:(-1);
    let l = a.n_labels in
    a.n_labels <- l + 1;
    l

  let place a l =
    assert (a.label_pos.(l) = -1);
    a.label_pos.(l) <- a.len

  let here a = a.len

  let push a x =
    if a.len >= Array.length a.code then
      a.code <- Memcore.grow_array a.code ~needed:(a.len + 1) ~fill:0;
    a.code.(a.len) <- x;
    a.len <- a.len + 1

  let push_label a l =
    a.patches <- (a.len, l) :: a.patches;
    push a 0

  let host a f =
    let i = a.n_hosts in
    a.hosts_rev <- f :: a.hosts_rev;
    a.n_hosts <- i + 1;
    push a op_host;
    push a i

  let table a arr =
    let i = a.n_tables in
    a.tables_rev <- arr :: a.tables_rev;
    a.n_tables <- i + 1;
    i

  let fconst a f =
    let i = a.n_fconsts in
    a.fconsts_rev <- f :: a.fconsts_rev;
    a.n_fconsts <- i + 1;
    i

  let halt a = push a op_halt

  let jmp a l =
    push a op_jmp;
    push_label a l

  let branch2 a op r1 r2 l =
    push a op;
    push a r1;
    push a r2;
    push_label a l

  let beq a r1 r2 l = branch2 a op_beq r1 r2 l

  let bne a r1 r2 l = branch2 a op_bne r1 r2 l

  let blt a r1 r2 l = branch2 a op_blt r1 r2 l

  let bge a r1 r2 l = branch2 a op_bge r1 r2 l

  let branchi a op r i l =
    push a op;
    push a r;
    push a i;
    push_label a l

  let beqi a r i l = branchi a op_beqi r i l

  let bnei a r i l = branchi a op_bnei r i l

  let blti a r i l = branchi a op_blti r i l

  let bgei a r i l = branchi a op_bgei r i l

  let emit2 a op x y =
    push a op;
    push a x;
    push a y

  let emit3 a op x y z =
    push a op;
    push a x;
    push a y;
    push a z

  let movi a rd i = emit2 a op_movi rd i

  let mov a rd rs = emit2 a op_mov rd rs

  let add a rd r1 r2 = emit3 a op_add rd r1 r2

  let addi a rd rs i = emit3 a op_addi rd rs i

  let sub a rd r1 r2 = emit3 a op_sub rd r1 r2

  let shli a rd rs i = emit3 a op_shli rd rs i

  let shri a rd rs i = emit3 a op_shri rd rs i

  let andi a rd rs i = emit3 a op_andi rd rs i

  let ori a rd rs i = emit3 a op_ori rd rs i

  let read a rd ra = emit2 a op_read rd ra

  let write a ra rv = emit2 a op_write ra rv

  let cas a rd ra ~expected ~desired =
    push a op_cas;
    push a rd;
    push a ra;
    push a expected;
    push a desired

  let faa a rd ra rdelta = emit3 a op_faa rd ra rdelta

  let faai a rd ra i = emit3 a op_faai rd ra i

  let fas a rd ra rv = emit3 a op_fas rd ra rv

  let cas2 a rd ra ~e0 ~e1 ~d0 ~d1 =
    push a op_cas2;
    push a rd;
    push a ra;
    push a e0;
    push a e1;
    push a d0;
    push a d1

  let payi a i =
    push a op_payi;
    push a i

  let payr a r =
    push a op_payr;
    push a r

  let now a rd =
    push a op_now;
    push a rd

  let rngi a rd bound = emit2 a op_rngi rd bound

  let rngb a rd f = emit2 a op_rngb rd f

  let tab a rd t ri = emit3 a op_tab rd t ri

  let cellld a rd c = emit2 a op_cellld rd c

  let cellst a c rs = emit2 a op_cellst c rs

  let cellinc a c i = emit2 a op_cellinc c i

  let assemble a =
    let code = Array.sub a.code 0 a.len in
    List.iter
      (fun (at, l) ->
        let pos = a.label_pos.(l) in
        if pos < 0 then invalid_arg "Vm.Asm.assemble: unplaced label";
        code.(at) <- pos)
      a.patches;
    {
      code;
      tables = Array.of_list (List.rev a.tables_rev);
      fconsts = Array.of_list (List.rev a.fconsts_rev);
      hosts = Array.of_list (List.rev a.hosts_rev);
      counters = Array.of_list (List.rev a.counters_rev);
      n_regs = a.n_regs;
      n_cells = a.n_cells;
    }
end

(* {1 Execution}

   The dispatch loop is the simulator's innermost loop, so it is written
   for the code the OCaml compiler actually emits (no flambda): a dense
   integer [match] compiles to a jump table, every branch bumps [fr.pc]
   by its own constant (no [arity] lookup), and stream/register/cell
   accesses are unchecked — the indices come from {!Asm}, which only
   hands out dense register/cell ids and patches labels to instruction
   starts. The loop therefore trusts its program: running a hand-built
   stream that [decode] rejects is undefined behaviour. Heap accesses
   keep their checks: [valid] bounds-tests the address before the
   unchecked [words] load, exactly like {!Memory}.

   A {!coroutine} runs flat: a pay that must reach the scheduler saves
   the resumption state into the frame ([fr.pc], plus [paid] for a
   mid-memory-opcode charge or [pending] for a suspended host call) and
   {e returns} the tick amount — no effect is performed, no fiber is
   switched. The scheduler charges the pay, picks, and re-enters the
   coroutine by plain call. Host calls are the one place a fiber still
   exists: each runs under [host_handler] in its own one-shot fiber so
   that a pay from arbitrary OCaml code can suspend just that call. *)

exception Halted

exception Yielded

(* Pays performed inside a [HOST] call (or a sanitized memory opcode,
   which defers to the {!Memory} entry points) land here instead of in
   the scheduler: the host runs in its own one-shot fiber, so the charge
   unwinds to the dispatch loop as an [H_pay] and the loop yields it
   like one of its own pays. *)
let host_handler : (unit, hosted) Effect.Deep.handler =
  let open Effect.Deep in
  {
    retc = (fun () -> H_done);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Proc.Pay n ->
            Some
              (fun (kk : (a, hosted) continuation) ->
                H_pay (n, fun () -> continue kk ()))
        | _ -> None);
  }

let coroutine p fr =
  let e =
    match Proc.get_env () with
    | Some e -> e
    | None -> invalid_arg "Vm.coroutine: not inside a simulation"
  in
  let code = p.code in
  let regs = fr.regs in
  let cells = fr.cells in
  let hc = fr.hc in
  let rng = fr.rng in
  let mem = fr.mem in
  let pid = e.Proc.pid in
  let fast = e.Proc.fast in
  (* Profiling: the inline pay sites below bypass [Proc.pay_env], so
     each charges its phase slot here — cost minus the coherence
     penalty to the current stack slot, the penalty to its coherence
     child (mirroring [Memory]'s demotion on the closure path). With
     profiling off this is one [None] match per pay. A re-dispatch
     after a mid-instruction yield skips the charge along with the pay
     ([fr.paid]), so each op charges exactly once. *)
  let prof = e.Proc.prof in
  let vcharge c pen =
    match prof with
    | Some p ->
        p.Proc.pcounts.(p.Proc.pcur) <- p.Proc.pcounts.(p.Proc.pcur) + c - pen;
        if pen > 0 then
          p.Proc.pcounts.(p.Proc.pcoh) <- p.Proc.pcounts.(p.Proc.pcoh) + pen
    | None -> ()
  in
  (* Unflushed elided pays: [fr.acc] ticks over [fr.npays] pays.
     Flushed through [bulk_pay] before anything that could observe
     clocks or the step counter — host calls, yields, faults, halt — so
     the accumulator is always empty when the coroutine returns. The
     pay/charge elision logic is inlined at each site below: a dispatch
     then touches no closure blocks, only the frame's own line. *)
  let flush () =
    if fr.acc > 0 then begin
      e.Proc.bulk_pay fr.acc fr.npays;
      fr.acc <- 0;
      fr.npays <- 0
    end
  in
  (* Inline address validation ([a < top] also bounds the unchecked
     [words]/[block_id] loads — both arrays are kept at least [top]
     long); on failure, materialize the exact {!Memory.Fault} through
     the slow path (which never returns). *)
  let valid a =
    a > 0 && a < hc.Memcore.top
    && begin
         let id = Array.unsafe_get hc.Memcore.block_id a in
         id <> 0 && Array.unsafe_get hc.Memcore.b_live id = 1
       end
  in
  let vfail : int -> int =
   fun a ->
    flush ();
    Memory.validate_addr mem a;
    assert false
  in
  (* The line a memory opcode charges, exactly as {!Memory}'s entry
     points choose it: an address outside [1, top) pays on the null
     line 0 (then faults in [valid]); a released heap faults at once. *)
  let vnull : int -> int =
   fun a -> if hc.Memcore.top = 0 then vfail a else 0
  in
  let hosted f =
    match Effect.Deep.match_with f () host_handler with
    | H_done -> ()
    | H_pay (n, t) ->
        fr.pending <- Some t;
        fr.yn <- n;
        raise_notrace Yielded
  in
  fun () ->
    try
      (match fr.pending with
      | Some t ->
          fr.pending <- None;
          (match t () with
          | H_done -> ()
          | H_pay (n, t') ->
              fr.pending <- Some t';
              fr.yn <- n;
              raise_notrace Yielded)
      | None -> ());
      while true do
        let base = fr.pc in
        match Array.unsafe_get code base with
        | 0 (* HALT *) -> raise_notrace Halted
        | 1 (* JMP t *) -> fr.pc <- Array.unsafe_get code (base + 1)
        | 2 (* BEQ r1 r2 t *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 = Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 3 (* BNE *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 <> Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 4 (* BLT *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 < Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 5 (* BGE *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 >= Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 6 (* BEQI r i t *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 = Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 7 (* BNEI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 <> Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 8 (* BLTI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 < Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 9 (* BGEI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 >= Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 10 (* MOVI rd i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get code (base + 2));
            fr.pc <- base + 3
        | 11 (* MOV rd rs *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 12 (* ADD rd r1 r2 *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              + Array.unsafe_get regs (Array.unsafe_get code (base + 3)));
            fr.pc <- base + 4
        | 13 (* ADDI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              + Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 14 (* SUB rd r1 r2 *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              - Array.unsafe_get regs (Array.unsafe_get code (base + 3)));
            fr.pc <- base + 4
        | 15 (* SHLI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              lsl Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 16 (* SHRI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              lsr Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 17 (* ANDI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              land Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 18 (* READ rd ra *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 3;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (Memory.read mem a))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_read hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_l1);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                Array.unsafe_set regs
                  (Array.unsafe_get code (base + 1))
                  (Array.unsafe_get hc.Memcore.words a);
                fr.pc <- base + 3
              end
              else ignore (vfail a)
            end
        | 19 (* WRITE ra rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 1)) in
            let v = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 3;
              flush ();
              hosted (fun () -> Memory.write mem a v)
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_write hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_rmw_owned);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                Array.unsafe_set hc.Memcore.words a v;
                fr.pc <- base + 3
              end
              else ignore (vfail a)
            end
        | 20 (* CAS rd ra re rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            let expected =
              Array.unsafe_get regs (Array.unsafe_get code (base + 3))
            in
            let desired =
              Array.unsafe_get regs (Array.unsafe_get code (base + 4))
            in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 5;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (if Memory.cas mem a ~expected ~desired then 1 else 0))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_write hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_rmw_owned);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                if Array.unsafe_get hc.Memcore.words a = expected then begin
                  Array.unsafe_set hc.Memcore.words a desired;
                  Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 1
                end
                else Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 0;
                fr.pc <- base + 5
              end
              else ignore (vfail a)
            end
        | 21 (* FAA rd ra rdelta *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            let d = Array.unsafe_get regs (Array.unsafe_get code (base + 3)) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 4;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (Memory.faa mem a d))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_write hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_rmw_owned);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                let old = Array.unsafe_get hc.Memcore.words a in
                Array.unsafe_set hc.Memcore.words a (old + d);
                Array.unsafe_set regs (Array.unsafe_get code (base + 1)) old;
                fr.pc <- base + 4
              end
              else ignore (vfail a)
            end
        | 22 (* FAAI rd ra i *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            let d = Array.unsafe_get code (base + 3) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 4;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (Memory.faa mem a d))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_write hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_rmw_owned);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                let old = Array.unsafe_get hc.Memcore.words a in
                Array.unsafe_set hc.Memcore.words a (old + d);
                Array.unsafe_set regs (Array.unsafe_get code (base + 1)) old;
                fr.pc <- base + 4
              end
              else ignore (vfail a)
            end
        | 23 (* FAS rd ra rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            let v = Array.unsafe_get regs (Array.unsafe_get code (base + 3)) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 4;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (Memory.fas mem a v))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c = Memcore.cost_write hc ~pid ~addr:ca in
                vcharge c (c - hc.Memcore.c_rmw_owned);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if valid a then begin
                let old = Array.unsafe_get hc.Memcore.words a in
                Array.unsafe_set hc.Memcore.words a v;
                Array.unsafe_set regs (Array.unsafe_get code (base + 1)) old;
                fr.pc <- base + 4
              end
              else ignore (vfail a)
            end
        | 24 (* CAS2 rd ra re0 re1 rd0 rd1 *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            let e0 = Array.unsafe_get regs (Array.unsafe_get code (base + 3)) in
            let e1 = Array.unsafe_get regs (Array.unsafe_get code (base + 4)) in
            let d0 = Array.unsafe_get regs (Array.unsafe_get code (base + 5)) in
            let d1 = Array.unsafe_get regs (Array.unsafe_get code (base + 6)) in
            if hc.Memcore.san_on then begin
              fr.pc <- base + 7;
              flush ();
              hosted (fun () ->
                  Array.unsafe_set regs
                    (Array.unsafe_get code (base + 1))
                    (if Memory.cas2 mem a ~e0 ~e1 ~d0 ~d1 then 1 else 0))
            end
            else begin
              if fr.paid then fr.paid <- false
              else begin
                (* Mid-instruction pay: [fr.pc] still points at the
                   opcode; [paid] makes the re-dispatch skip the charge
                   (coherence state already transitioned) and go
                   straight to the access — which, exactly like the
                   closure path, happens after the suspension. *)
                let ca = if a > 0 && a < hc.Memcore.top then a else vnull a in
                let c =
                  Memcore.cost_write hc ~pid ~addr:ca + hc.Memcore.c_dwcas_extra
                in
                vcharge c (c - hc.Memcore.c_rmw_owned - hc.Memcore.c_dwcas_extra);
                if fast && c < e.Proc.budget then begin
                  e.Proc.budget <- e.Proc.budget - c;
                  fr.acc <- fr.acc + c;
                  fr.npays <- fr.npays + 1
                end
                else begin
                  (* No inline regrant here: at the process counts where
                     the flat path matters the running core has lost the
                     race by [c] almost surely, and the scheduler's own
                     round replays the would-be regrant bit-identically
                     (same accounting, same [steps] bump, fresh seq). *)
                  flush ();
                  fr.paid <- true;
                  fr.yn <- c;
                  raise_notrace Yielded
                end
              end;
              if not (valid a) then ignore (vfail a);
              if not (valid (a + 1)) then ignore (vfail (a + 1));
              if
                Array.unsafe_get hc.Memcore.words a = e0
                && Array.unsafe_get hc.Memcore.words (a + 1) = e1
              then begin
                Array.unsafe_set hc.Memcore.words a d0;
                Array.unsafe_set hc.Memcore.words (a + 1) d1;
                Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 1
              end
              else Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 0;
              fr.pc <- base + 7
            end
        | 25 (* PAYI i *) ->
            (* Instruction-boundary pay: [fr.pc] is already on the next
               instruction, so a yield resumes right after it. *)
            fr.pc <- base + 2;
            let n = Array.unsafe_get code (base + 1) in
            if n > 0 then begin
              vcharge n 0;
              if fast && n < e.Proc.budget then begin
                e.Proc.budget <- e.Proc.budget - n;
                fr.acc <- fr.acc + n;
                fr.npays <- fr.npays + 1
              end
              else begin
                flush ();
                fr.yn <- n;
                raise_notrace Yielded
              end
            end
        | 26 (* PAYR r *) ->
            fr.pc <- base + 2;
            let n = Array.unsafe_get regs (Array.unsafe_get code (base + 1)) in
            if n > 0 then begin
              vcharge n 0;
              if fast && n < e.Proc.budget then begin
                e.Proc.budget <- e.Proc.budget - n;
                fr.acc <- fr.acc + n;
                fr.npays <- fr.npays + 1
              end
              else begin
                flush ();
                fr.yn <- n;
                raise_notrace Yielded
              end
            end
        | 27 (* NOW rd *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (e.Proc.clock () + fr.acc);
            fr.pc <- base + 2
        | 28 (* RNGI rd i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Rng.int rng (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 29 (* RNGB rd #f *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (if
                 Rng.below rng
                   (Array.unsafe_get p.fconsts
                      (Array.unsafe_get code (base + 2)))
               then 1
               else 0);
            fr.pc <- base + 3
        | 30 (* HOST #h *) ->
            fr.pc <- base + 2;
            flush ();
            let h = Array.unsafe_get p.hosts (Array.unsafe_get code (base + 1)) in
            hosted (fun () -> h fr)
        | 31 (* TAB rd #t ri *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get p.tables (Array.unsafe_get code (base + 2))).(Array.unsafe_get
                                                                                regs
                                                                                (Array.unsafe_get
                                                                                   code
                                                                                   (base
                                                                                  + 3)));
            fr.pc <- base + 4
        | 32 (* CELLLD rd #c *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get cells (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 33 (* CELLST #c rs *) ->
            Array.unsafe_set cells
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 34 (* CELLINC #c i *) ->
            let c = Array.unsafe_get code (base + 1) in
            Array.unsafe_set cells c
              (Array.unsafe_get cells c + Array.unsafe_get code (base + 2));
            fr.pc <- base + 3
        | 35 (* ORI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              lor Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | _ -> assert false
      done;
      assert false
    with
    | Halted ->
        flush ();
        -1
    | Yielded -> fr.yn

(* Fiber-mode execution for callers running inside an ordinary simulated
   process: drive the coroutine to completion, forwarding each yielded
   pay through the {!Proc.Pay} effect (the coroutine has already flushed
   and updated its resumption state, so the perform suspends at exactly
   the tick a flat run would). *)
let exec p fr =
  let co = coroutine p fr in
  let rec go () =
    let r = co () in
    if r >= 0 then begin
      Effect.perform (Proc.Pay r);
      go ()
    end
  in
  go ()
