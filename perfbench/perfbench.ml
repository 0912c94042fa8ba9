(* The benchmark program; see README.md in this directory.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 [--digests FILE] [--setup-only]
   perfbench.exe --self-test [--digests FILE]
   perfbench.exe --record SEED[,SEED...] [--digests FILE]

   Untraced (--trace 0): runs the workload's batch of cells back to back
   until [S] seconds are used, checking every cell, and prints the
   simulator's end-to-end figures. Traced (--trace 1): times each layer
   from outside (unit-cost loops, then every cell run untraced and again
   profiled, each call inside a span), prints the per-layer figures and
   the wall ledger, and writes the spans to _perfbench/. The last line of
   stdout is one JSON object; run.py adds the set-up time, which it times
   over --setup-only launches (each prints "ready" once set up, before
   any cell runs, then its host-speed scale). *)

let now = Unix.gettimeofday

let median = Units.median

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Host memory high-water mark of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun v ->
             kb := v)
     done
   with End_of_file -> ());
  close_in ic;
  float_of_int !kb /. 1024.0

(* Drop the global registries the workload layer appends every cell's
   telemetry and profiler to, so a long run's memory stays flat. *)
let forget () =
  Simcore.Telemetry.mark ();
  Simcore.Profiler.mark ()

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let print_result (chk : Check.t) metrics =
  say "{\"attempted\": %d, \"failed\": %d, \"failures\": [%s], \"metrics\": {%s}}"
    chk.Check.attempted chk.Check.failed
    (String.concat ", " (List.rev_map (Printf.sprintf "%S") chk.Check.failures))
    (json_metrics metrics)

(* Steps of each cell for [seed]: from its run, or from the untimed
   replay for cells whose run cannot see them. *)
let replay_steps chk (w : Cells.workload) ~seed =
  List.filter_map
    (fun (c : Cells.cell) ->
      match c.Cells.replay with
      | None -> None
      | Some replay ->
          let o = Check.cell chk c.Cells.name (fun () -> replay ~seed) in
          forget ();
          Some (c.Cells.name, match o with Some o -> o.Cells.steps | None -> 0))
    w.Cells.cells

(* One checked execution of a cell. *)
let run_cell chk (c : Cells.cell) ~seed ~profile =
  Check.cell chk c.Cells.name (fun () -> c.Cells.run ~seed ~profile)

let steps_of replayed name (o : Cells.outcome) =
  match List.assoc_opt name replayed with Some s -> s | None -> o.Cells.steps

(* {1 Untraced run: the end-to-end metrics} *)

type batch = { wall : float; cells : (string * float * Cells.outcome option) list }

let run_batch chk (w : Cells.workload) ~seed ~profile =
  let cells =
    List.map
      (fun (c : Cells.cell) ->
        let t0 = now () in
        let o = run_cell chk c ~seed ~profile in
        (c.Cells.name, now () -. t0, o))
      w.Cells.cells
  in
  forget ();
  { wall = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 cells; cells }

(* Batches back to back while another one fits in [seconds], each with
   the host speed around it (the calibrations before and after it,
   averaged); also the peak memory after the first one. *)
let batches_for ~seconds f =
  let start = now () in
  let rss = ref 0.0 in
  let rec go acc before =
    let b = f () in
    let after = Calib.ns () in
    if acc = [] then rss := peak_rss_mb ();
    let acc = (b, (before +. after) /. 2.0) :: acc in
    if now () -. start +. b.wall <= seconds then go acc after else List.rev acc
  in
  let batches = go [] (Calib.ns ()) in
  (batches, !rss)

let batch_steps replayed b =
  List.fold_left
    (fun a (name, _, o) ->
      match o with Some o -> a + steps_of replayed name o | None -> a)
    0 b.cells

let untraced chk w ~seed ~seconds =
  (* Peak memory is read after the first batch: a fixed amount of work,
     so the figure does not depend on how many batches the host's speed
     fits into the run. *)
  let batches, rss =
    batches_for ~seconds (fun () -> run_batch chk w ~seed ~profile:false)
  in
  let replayed = replay_steps chk w ~seed in
  let rates =
    List.map
      (fun (b, _) -> float_of_int (batch_steps replayed b) /. b.wall)
      batches
  in
  let scaled =
    List.map2
      (fun r (_, calib) -> r *. calib /. Calib.reference_ns)
      rates batches
  in
  say "%s seed %d: %d batches of %d cells, %.2f s timed" w.Cells.wname seed
    (List.length batches) (List.length w.Cells.cells)
    (List.fold_left (fun a (b, _) -> a +. b.wall) 0.0 batches);
  say "  sim_steps_per_s  %.0f 1/s (median of batches, min %.0f, max %.0f; \
       raw %.0f; calibrations %s ns)"
    (median scaled)
    (List.fold_left min infinity scaled)
    (List.fold_left max 0.0 scaled)
    (median rates)
    (String.concat " " (List.map (fun (_, c) -> Printf.sprintf "%.3f" c) batches));
  say "  peak_rss_mb      %.1f MB" rss;
  say "  failed_cell_frac %.4f (%d of %d cell runs)" (Check.failed_frac chk)
    chk.Check.failed chk.Check.attempted;
  [
    ("sim_steps_per_s", median scaled, "1/s");
    ("peak_rss_mb", rss, "MB");
    (* unscaled, for ab.py *)
    ("raw.sim_steps_per_s", median rates, "1/s");
  ]

(* {1 Traced run: the per-layer metrics} *)

module Spans = struct
  type s = { id : int; name : string; t0 : float; t1 : float; parent : int }

  let all : s list ref = ref []

  let next = ref 0

  (* Open a span: returns its id and the function that closes it. *)
  let start ?(parent = -1) name =
    let id = !next in
    incr next;
    let t0 = now () in
    (id, fun () -> all := { id; name; t0; t1 = now (); parent } :: !all)

  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\": [\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
           %.1f, \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d}}"
          (if i = 0 then "" else ",\n")
          s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent)
      (List.sort (fun a b -> compare a.id b.id) !all);
    output_string oc "\n]}\n";
    close_out oc
end

let sum_counters outcomes pred =
  List.fold_left
    (fun a (o : Cells.outcome) ->
      List.fold_left (fun a (k, v) -> if pred k then a + v else a) a o.Cells.counters)
    0 outcomes

let max_counter outcomes key =
  List.fold_left
    (fun a (o : Cells.outcome) ->
      match List.assoc_opt key o.Cells.counters with Some v -> max a v | None -> a)
    0 outcomes

let ratio a b = if b = 0.0 then 0.0 else a /. b

module Prof = Simcore.Profiler

(* The reported phase set: the allocator's local/steal children fold
   into [alloc]. *)
let phase_key = function
  | Prof.Alloc_local | Prof.Alloc_steal -> Prof.Alloc
  | p -> p

let report_phases =
  List.filter (fun p -> phase_key p = p) Prof.phases

type traced_cell = {
  tc_name : string;
  untraced_s : float;
  traced_s : float;
  outcome : Cells.outcome option;
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
  phases : (Prof.phase * int) list;
}

let traced_batch chk (w : Cells.workload) ~seed ~index =
  let parent, close_batch =
    Spans.start (Printf.sprintf "%s/batch-%d" w.Cells.wname index)
  in
  let cells =
    List.map
      (fun (c : Cells.cell) ->
        let _, close = Spans.start ~parent (c.Cells.name ^ " (untraced)") in
        let g0 = Gc.quick_stat () in
        let t0 = now () in
        let o = run_cell chk c ~seed ~profile:false in
        let t1 = now () in
        let g1 = Gc.quick_stat () in
        close ();
        Prof.mark ();
        let _, close = Spans.start ~parent c.Cells.name in
        let t2 = now () in
        ignore (run_cell chk c ~seed ~profile:true);
        let t3 = now () in
        close ();
        let phases =
          List.concat_map Prof.leaf_totals (Prof.recent ())
          |> List.map (fun (p, v) -> (phase_key p, v))
        in
        forget ();
        {
          tc_name = c.Cells.name;
          untraced_s = t1 -. t0;
          traced_s = t3 -. t2;
          outcome = o;
          gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
          gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
          phases;
        })
      w.Cells.cells
  in
  close_batch ();
  cells

let traced chk (w : Cells.workload) ~seed ~seconds =
  let start = now () in
  let parent, close_units = Spans.start "units" in
  let units =
    List.map
      (fun (name, f) ->
        let _, close = Spans.start ~parent ("units/" ^ name) in
        let v = Units.measure f in
        close ();
        forget ();
        (name, v))
      Units.cases
  in
  close_units ();
  let unit name = List.assoc name units in
  let _, close_replay = Spans.start (w.Cells.wname ^ "/replay") in
  let replayed = replay_steps chk w ~seed in
  close_replay ();
  (* Batches until the time is used; at least one. *)
  let rec go i acc =
    let b = traced_batch chk w ~seed ~index:i in
    let elapsed = now () -. start in
    let per_batch = (now () -. start) /. float_of_int (i + 1) in
    if elapsed +. per_batch <= seconds then go (i + 1) (b :: acc)
    else List.rev (b :: acc)
  in
  let batches = go 0 [] in
  let first = List.hd batches in
  let outcomes = List.filter_map (fun tc -> tc.outcome) first in
  let steps_tc tc =
    match tc.outcome with Some o -> steps_of replayed tc.tc_name o | None -> 0
  in
  let steps = List.fold_left (fun a tc -> a + steps_tc tc) 0 first in
  let fsteps = float_of_int steps in
  let ops = List.fold_left (fun a (o : Cells.outcome) -> a + o.Cells.ops) 0 outcomes in
  let counter key = sum_counters outcomes (fun k -> k = key) in
  let alloc_fresh = counter "mem.alloc.fresh" and reuse = counter "mem.alloc.reuse" in
  let allocs = alloc_fresh + reuse in
  let cas_retry =
    sum_counters outcomes (fun k ->
        String.starts_with ~prefix:"cds." k
        && String.ends_with ~suffix:".cas_retry" k)
  in
  let offered =
    List.fold_left (fun a (o : Cells.outcome) -> a + o.Cells.offered) 0 outcomes
  in
  let bsum f b = List.fold_left (fun a tc -> a +. f tc) 0.0 b in
  let med f = median (List.map f batches) in
  let wall = med (bsum (fun tc -> tc.untraced_s)) in
  let twall = med (bsum (fun tc -> tc.traced_s)) in
  let svc_done = counter "svc.done" in
  let per_cell_ns =
    List.filter_map
      (fun tc ->
        let s = steps_tc tc in
        if s = 0 then None
        else
          Some
            (median
               (List.map
                  (fun b ->
                    let tc' = List.find (fun x -> x.tc_name = tc.tc_name) b in
                    tc'.untraced_s *. 1e9 /. float_of_int s)
                  batches)))
      first
  in
  let phase_ticks =
    List.map
      (fun p ->
        ( p,
          List.fold_left
            (fun a tc ->
              List.fold_left (fun a (q, v) -> if q = p then a + v else a) a tc.phases)
            0 first ))
      report_phases
  in
  let total_ticks = List.fold_left (fun a (_, v) -> a + v) 0 phase_ticks in
  (* The wall ledger: count x unit cost per layer against the timed wall
     of one untraced batch. Every step pays the scheduler at least an
     elided pay and is one Memory+Coherence operation; every allocation
     is an allocator pair. The rest (VM dispatch, scheme bookkeeping
     between steps, host calls, GC) is the residual. *)
  let terms =
    [
      ("sched (steps x sched.pay_elided_ns)", fsteps *. unit "sched.pay_elided_ns");
      ("mem (steps x mem.read_ns)", fsteps *. unit "mem.read_ns");
      ( "alloc (alloc.count x alloc.pair_ns)",
        float_of_int allocs *. unit "alloc.pair_ns" );
    ]
  in
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0.0 terms in
  let wall_ns = wall *. 1e9 in
  say "%s seed %d: traced, %d batches of %d cells" w.Cells.wname seed
    (List.length batches) (List.length w.Cells.cells);
  say "  wall ledger (one untraced batch, %.3f s):" wall;
  List.iter
    (fun (name, v) ->
      say "    %-40s %9.3f s  %5.1f%%" name (v /. 1e9) (100.0 *. ratio v wall_ns))
    terms;
  say "    %-40s %9.3f s  %5.1f%%" "residual" ((wall_ns -. explained) /. 1e9)
    (100.0 *. ratio (wall_ns -. explained) wall_ns);
  let largest, _ =
    List.fold_left
      (fun (n, m) (n', v) -> if v > m then (n', v) else (n, m))
      ("", 0.0) terms
  in
  say "    largest term: %s" largest;
  let gc_minor = med (bsum (fun tc -> tc.gc_minor)) in
  let gc_promoted = med (bsum (fun tc -> tc.gc_promoted)) in
  let gc_major = med (bsum (fun tc -> float_of_int tc.gc_major)) in
  let ns v = (v, "ns") and cnt v = (float_of_int v, "count") and frac v = (v, "frac") in
  let metrics =
    List.map (fun (n, v) -> (n, ns v)) units
    @ [
        ("sim.steps", cnt steps);
        ("alloc.count", cnt allocs);
        ("alloc.per_kstep", (1000.0 *. ratio (float_of_int allocs) fsteps, "1/kstep"));
        ("alloc.reuse_frac", frac (ratio (float_of_int reuse) (float_of_int allocs)));
        ("smr.scans", cnt (sum_counters outcomes (String.ends_with ~suffix:".scans")));
        ("ar.scan_steps", cnt (counter "ar.scan_steps"));
        ("drc.eager_dec", cnt (counter "drc.eager_dec"));
        ("ar.delayed_peak", cnt (max_counter outcomes "ar.delayed/peak"));
        ("cds.cas_retry", cnt cas_retry);
        ( "cds.retry_per_kop",
          (1000.0 *. ratio (float_of_int cas_retry) (float_of_int ops), "1/kop") );
        ("svc.request_ns", ns (ratio wall_ns (float_of_int svc_done)));
        ("svc.done", cnt svc_done);
        ( "svc.shed_frac",
          frac (ratio (float_of_int (counter "svc.shed")) (float_of_int offered)) );
        ("gc.minor_words_per_step", (ratio gc_minor fsteps, "words/step"));
        ("gc.promoted_words_per_step", (ratio gc_promoted fsteps, "words/step"));
        ("gc.major_collections", (gc_major, "count"));
        ("trace.overhead_frac", frac (ratio twall wall -. 1.0));
      ]
    @ List.map
        (fun (p, v) ->
          ( Printf.sprintf "phase.%s_frac" (Prof.phase_name p),
            frac (ratio (float_of_int v) (float_of_int total_ticks)) ))
        phase_ticks
    @ [
        ("cell.ns_per_step_p50", ns (median per_cell_ns));
        ("cell.ns_per_step_max", ns (List.fold_left max 0.0 per_cell_ns));
        ("ledger.explained_frac", frac (ratio explained wall_ns));
      ]
  in
  List.map (fun (n, (v, u)) -> (n, v, u)) metrics

(* {1 Self-test of the checker} *)

let self_test committed =
  let cell = List.hd Cells.rc_read_mostly.Cells.cells in
  let name = cell.Cells.name in
  let run () = cell.Cells.run ~seed:42 ~profile:false in
  let good = (run ()).Cells.digest in
  let expect what cond =
    if not cond then begin
      Printf.eprintf "self-test FAILED: %s\n%!" what;
      exit 1
    end;
    say "self-test ok: %s" what
  in
  (* A clean run against the right digest. *)
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl (42, name) good;
  let clean = Check.create ~committed:tbl ~seed:42 in
  ignore (Check.cell clean name run);
  ignore (Check.cell clean name run);
  expect "clean cell runs are not failed" (Check.failed_frac clean = 0.0);
  (* A tampered committed digest. *)
  let bad = Hashtbl.create 4 in
  Hashtbl.replace bad (42, name)
    (String.map (fun c -> if c = '0' then '1' else '0') good);
  let tampered = Check.create ~committed:bad ~seed:42 in
  ignore (Check.cell tampered name run);
  expect "a tampered digest counts as failed" (tampered.Check.failed = 1);
  (* A cell that raises, beside a clean one. *)
  let mixed = Check.create ~committed:tbl ~seed:42 in
  ignore (Check.cell mixed name run);
  ignore (Check.cell mixed "raising" (fun () -> failwith "injected fault"));
  expect "a raising cell counts as failed"
    (mixed.Check.failed = 1 && Check.failed_frac mixed = 0.5);
  (* Without a committed digest, a changed result on a later execution. *)
  let uncommitted = Check.create ~committed:(Hashtbl.create 1) ~seed:42 in
  ignore (Check.cell uncommitted name run);
  ignore
    (Check.cell uncommitted name (fun () -> { (run ()) with Cells.digest = "0" }));
  expect "an uncommitted seed falls back to first-run digests"
    (uncommitted.Check.failed = 1);
  (* The committed file agrees with this build. *)
  (match Hashtbl.find_opt committed (42, name) with
  | Some d -> expect "the committed digest of seed 42 matches" (d = good)
  | None -> expect "the digest file has seed 42" false);
  forget ()

(* {1 Recording the committed digests} *)

let record path seeds =
  let oc = open_out path in
  List.iter
    (fun seed ->
      List.iter
        (fun (w : Cells.workload) ->
          List.iter
            (fun (c : Cells.cell) ->
              let o = c.Cells.run ~seed ~profile:false in
              forget ();
              Printf.fprintf oc "%d\t%s\t%s\n" seed c.Cells.name o.Cells.digest)
            w.Cells.cells)
        Cells.all;
      say "recorded seed %d" seed)
    seeds;
  close_out oc

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and setup_only = ref false and self = ref false in
  let digests = ref "perfbench/digests.tsv" and record_seeds = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--digests", Arg.Set_string digests, "FILE committed digests");
      ("--setup-only", Arg.Set setup_only, " stop when set up");
      ("--self-test", Arg.Set self, " test the output checker");
      ("--record", Arg.Set_string record_seeds, "SEEDS rewrite the digest file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record_seeds <> "" then
    record !digests (List.map int_of_string (String.split_on_char ',' !record_seeds))
  else if !self then self_test (Check.load !digests)
  else
    match Cells.find !workload with
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Cells.wname) Cells.all));
        exit 2
    | Some w ->
        let committed = Check.load !digests in
        let chk = Check.create ~committed ~seed:!seed in
        (* Set-up ends here: what every launch pays before its first cell. *)
        say "ready";
        if !setup_only then
          (* the factor that scales this launch's host times (calib/calib.ml) *)
          say "scale %.17g" (Calib.reference_ns /. Calib.ns ())
        else begin
          (* Warm-up: the batch's first cell, run once before timing and
             checked like any other run, grows the heap and touches the
             code a cold start would otherwise charge to the first batch. *)
          ignore
            (run_cell chk (List.hd w.Cells.cells) ~seed:!seed ~profile:false);
          forget ();
          say "digests: %s"
            (if Check.has_seed committed !seed then "committed for this seed"
             else "none committed for this seed; checking repeat runs");
          let metrics =
            if !trace = 0 then untraced chk w ~seed:!seed ~seconds:!seconds
            else begin
              let m = traced chk w ~seed:!seed ~seconds:!seconds in
              (try Unix.mkdir "_perfbench" 0o755
               with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              let path =
                Printf.sprintf "_perfbench/spans-%s-seed%d.json" w.Cells.wname
                  !seed
              in
              Spans.write path;
              say "spans: %s (%d)" path !Spans.next;
              m
            end
          in
          List.iter (fun f -> say "  FAILED %s" f) (List.rev chk.Check.failures);
          print_result chk metrics
        end
