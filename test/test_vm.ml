(* The compiled workload VM must be invisible: the closure interpreter
   is the oracle, and a compiled point — driver loop, scheme ops, RNG
   draws, pays — must be bit-identical to it under every scheduling
   policy, for every scheme, with and without the run-ahead fast path.
   Plus the instruction stream codec and the fault-routing guarantees
   the flat dispatch path makes. *)

open Simcore

let policies =
  [
    ("fair", Sim.Fair);
    ("uniform", Sim.Uniform);
    ("chaos", Sim.Chaos { pause_prob = 0.03; pause_steps = 60 });
  ]

let vm_on = { Config.default with Config.vm = true }

let vm_off = { Config.default with Config.vm = false }

let point ~config ?fastpath policy m =
  Workload.Fig6.loadstore_point ~policy ?fastpath ~config m ~threads:8
    ~horizon:2_500 ~seed:7 ~n_locs:8 ~p_store:0.3

(* Every scheme, every policy: compiled = closure, field for field
   (ops, steps, makespan, throughput, memory series, full telemetry
   snapshot). Schemes without compiled ops run on the fiber driver
   either way. *)
let test_oracle_identity () =
  List.iter
    (fun (sname, m) ->
      List.iter
        (fun (pname, policy) ->
          let on = point ~config:vm_on policy m in
          let off = point ~config:vm_off policy m in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: vm on = off" sname pname)
            true (on = off);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: non-trivial" sname pname)
            true
            (on.Workload.Measure.ops > 0))
        policies)
    Workload.Fig6.schemes

(* The two elision layers compose: all four combinations of [Config.vm]
   and [fastpath] give the same point. *)
let test_vm_fastpath_cross () =
  let drc = List.assoc "DRC" Workload.Fig6.schemes in
  let runs =
    List.map
      (fun (config, fastpath) -> point ~config ~fastpath Sim.Fair drc)
      [ (vm_on, true); (vm_on, false); (vm_off, true); (vm_off, false) ]
  in
  match runs with
  | r0 :: rest ->
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "vm x fastpath combination %d" (i + 1))
            true (r = r0))
        rest
  | [] -> assert false

(* {1 Instruction stream codec} *)

(* A well-formed random stream: opcodes with the right operand counts,
   operand values spanning registers, immediates, and large addresses.
   [decode] must accept it and [encode] must reproduce it byte for
   byte. *)
let raw_stream_gen =
  QCheck.Gen.(
    let operand =
      frequency [ (4, int_range (-4) 64); (1, int_range 0 1_000_000) ]
    in
    let instr =
      int_range 0 (Array.length Vm.arity - 1) >>= fun op ->
      list_repeat Vm.arity.(op) operand >|= fun args -> op :: args
    in
    list_size (int_range 0 40) instr >|= fun l ->
    Array.of_list (List.concat l))

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode . encode = id on valid streams"
    (QCheck.make raw_stream_gen ~print:(fun a ->
         String.concat ";" (List.map string_of_int (Array.to_list a))))
    (fun raw ->
      match Vm.decode raw with
      | Some l -> Vm.encode l = raw
      | None -> false)

let test_decode_rejects () =
  Alcotest.(check bool)
    "bad opcode" true
    (Vm.decode [| Array.length Vm.arity |] = None);
  Alcotest.(check bool)
    "truncated operands" true
    (Vm.decode [| 2; 0; 1 |] = None);
  (* symbolic round trip through every shape of constructor *)
  let l =
    Vm.
      [
        Movi (0, 42);
        Read (1, 0);
        Cas2 (2, 0, 3, 4, 5, 6);
        Payi 7;
        Rngb (1, 0);
        Host 3;
        Halt;
      ]
  in
  Alcotest.(check bool) "symbolic round trip" true (Vm.decode (Vm.encode l) = Some l)

(* {1 Fault routing}

   A bad address must fail identically however it is reached: the
   inline validation of the flat dispatch loop re-raises through
   {!Memory.validate_addr}, and a sanitized run routes the access
   through the {!Memory} entry points — both must surface the same
   {!Memory.Fault} (same culprit address and process) out of
   [Sim.run], rendered by {!Memory.pp_fault}. *)
let vm_read_fault ~sanitize addr_of =
  let config = { Config.small with Config.sanitize; Config.vm = true } in
  let mem = Memory.create config in
  let a0 = addr_of mem in
  let coroutine _pid =
    let module A = Vm.Asm in
    let a = A.create () in
    let r_a = A.reg a and r_d = A.reg a in
    A.movi a r_a a0;
    A.read a r_d r_a;
    A.halt a;
    let prog = A.assemble a in
    let fr =
      Vm.frame prog ~mem ~rng:(Proc.rng ())
        ~cells:(Array.make prog.Vm.n_cells 0)
    in
    Some (Vm.coroutine prog fr)
  in
  let res =
    Sim.run ~policy:Sim.Fair ~seed:3 ~config ~procs:1 ~coroutine (fun _ ->
        assert false)
  in
  match res.Sim.faults with
  | [ { Sim.pid; exn } ] -> (a0, pid, exn)
  | l -> Alcotest.failf "expected exactly one fault, got %d" (List.length l)

let vm_fault ~sanitize =
  vm_read_fault ~sanitize (fun mem ->
      let a0 = Memory.alloc mem ~tag:"victim" ~size:1 in
      Memory.free mem a0 (* lint: allow-free *);
      a0)

let check_fault name (a0, pid, exn) =
  Alcotest.(check int) (name ^ ": faulting pid") 0 pid;
  (match exn with
  | Memory.Fault { addr; pid = fpid; _ } ->
      Alcotest.(check int) (name ^ ": fault addr") a0 addr;
      Alcotest.(check int) (name ^ ": fault pid") 0 fpid
  | e -> Alcotest.failf "%s: not a Memory.Fault: %s" name (Printexc.to_string e));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let s = Memory.fault_to_string exn in
  Alcotest.(check bool)
    (name ^ ": pp_fault names the address")
    true
    (contains s (Printf.sprintf "addr=%d" a0))

let test_fault_routing () =
  check_fault "inline validation" (vm_fault ~sanitize:Sanitizer.off);
  check_fault "sanitized (shadow) path" (vm_fault ~sanitize:Sanitizer.default_on)

(* A wild address is charged on the null line and then faults by name,
   exactly as through {!Memory.read}: no host exception from a negative
   line index, no line array grown to a huge address. *)
let test_wild_read () =
  List.iter
    (fun (addr, kind) ->
      let a0, pid, exn =
        vm_read_fault ~sanitize:Sanitizer.off (fun _ -> addr)
      in
      check_fault (Printf.sprintf "READ %d" addr) (a0, pid, exn);
      match exn with
      | Memory.Fault { kind = k; _ } ->
          Alcotest.(check string) "fault kind"
            (Memory.fault_kind_to_string kind)
            (Memory.fault_kind_to_string k)
      | _ -> ())
    [ (-9, Memory.Null_deref); (1 lsl 40, Memory.Out_of_bounds) ]

let suite =
  [
    Alcotest.test_case "oracle identity (schemes x policies)" `Quick
      test_oracle_identity;
    Alcotest.test_case "vm x fastpath cross product" `Quick
      test_vm_fastpath_cross;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "decode rejects malformed" `Quick test_decode_rejects;
    Alcotest.test_case "fault routing (inline + sanitized)" `Quick
      test_fault_routing;
    Alcotest.test_case "wild READ faults by name" `Quick test_wild_read;
  ]
