(* The benchmark's workloads: fixed batches of figure cells, each cell one
   call into the workload layer's public point functions. A cell's
   simulated result is reduced to a digest (the output check) and a few
   deterministic counts (the per-layer metrics); host time is measured
   by the caller around [run]. *)

module M = Workload.Measure
module H = Simcore.Stats.Histogram

type outcome = {
  steps : int;  (** simulated scheduler steps ([Sim.result.steps]) *)
  ops : int;  (** completed benchmark operations / served requests *)
  counters : (string * int) list;  (** the cell's telemetry snapshot *)
  offered : int;  (** serving cells: requests generated; else 0 *)
  digest : string;  (** hex digest of every simulated result *)
}

type cell = {
  name : string;  (** workload/scheme/P (or rate) *)
  run : seed:int -> profile:bool -> outcome;
      (** [profile] is on in the traced run only: the cell then creates
          its own {!Simcore.Profiler.t} (collected through
          {!Simcore.Profiler.recent}) and must give the same [digest] as
          without it *)
  replay : (seed:int -> outcome) option;
      (** for cells whose [run] cannot see [Sim.result.steps] (it reads
          0 there): an untimed re-run that recovers the step count *)
}

type workload = { wname : string; cells : cell list }

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* Canonical rendering of simulated results: integers in decimal, floats
   in exact hexadecimal, telemetry in snapshot order. *)
let add_counters b counters =
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) counters

let point_buf (p : M.point) =
  let b = Buffer.create 512 in
  Printf.bprintf b "threads=%d;ops=%d;steps=%d;makespan=%d;thr=%h;mem=%h;"
    p.M.threads p.M.ops p.M.steps p.M.makespan p.M.throughput p.M.mem_metric;
  add_counters b p.M.counters;
  b

let of_point (p : M.point) b =
  {
    steps = p.M.steps;
    ops = p.M.ops;
    counters = p.M.counters;
    offered = 0;
    digest = hex (Buffer.contents b);
  }

(* {1 rc_read_mostly: Figure 6a} *)

(* OrcGC is left out: on 2 of 1,300 random seeds its P=8 cell faults
   with a use-after-free (see README.md, "Scope and limits"). *)
let rc_schemes =
  List.filter (fun (name, _) -> name <> "OrcGC") Workload.Fig6.schemes

let rc_read_mostly =
  let threads = [ 1; 8; 48; 144 ] in
  {
    wname = "rc_read_mostly";
    cells =
      List.concat_map
        (fun p ->
          List.map
            (fun (scheme, m) ->
              {
                name = Printf.sprintf "rc_read_mostly/%s/P=%d" scheme p;
                run =
                  (fun ~seed ~profile ->
                    let pt =
                      Workload.Fig6.loadstore_point ~profile
                        m ~threads:p ~horizon:75_000 ~seed ~n_locs:10
                        ~p_store:0.1
                    in
                    of_point pt (point_buf pt));
                replay = None;
              })
            rc_schemes)
        threads;
  }

(* {1 smr_update_heavy: Figure 7 BST and hash table, 50% updates} *)

let smr_update_heavy =
  let panels =
    [ ("bst", Workload.Fig7.Bst_set, 4096); ("hash", Workload.Fig7.Hash_set, 2048) ]
  in
  let threads = [ 8; 48 ] in
  {
    wname = "smr_update_heavy";
    cells =
      List.concat_map
        (fun (sname, structure, size) ->
          List.concat_map
            (fun p ->
              List.map
                (fun scheme ->
                  {
                    name =
                      Printf.sprintf "smr_update_heavy/%s/%s/P=%d" sname scheme
                        p;
                    run =
                      (fun ~seed ~profile ->
                        let pt =
                          Workload.Fig7.point ~profile
                            ~structure ~scheme ~threads:p ~horizon:60_000 ~seed
                            ~size ~update_pct:50 ()
                        in
                        of_point pt (point_buf pt));
                    replay = None;
                  })
                Workload.Fig7.scheme_names)
            threads)
        panels;
  }

(* {1 serve_open_loop: the Figure S grid} *)

let serve_params = Workload.Serve.default ~quick:false

let hist_buf b name h =
  Printf.bprintf b "%s:n=%d;mean=%h;max=%d;" name (H.count h) (H.mean h)
    (H.max_sample h);
  List.iter
    (fun q -> Printf.bprintf b "q%g=%d;" q (H.percentile h q))
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* One cell of the grid, through the same [Serve.grid] that
   [repro run serve] calls. *)
let serve_cell ~seed ~profile ?tracer rate scheme =
  match
    Workload.Serve.grid ?tracer ~profile ~seed
      { serve_params with rates = [ rate ]; schemes = [ scheme ] }
  with
  | [ (_, [ r ]) ] -> r
  | _ -> assert false

let serve_digest (r : Service.Slo.report) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "offered=%d;completed=%d;ok=%d;shed=%d;makespan=%d;"
    r.Service.Slo.offered r.completed r.ok r.shed r.makespan;
  hist_buf b "latency" r.latency;
  hist_buf b "queueing" r.queueing;
  add_counters b r.counters;
  (match r.flight with Some f -> Buffer.add_string b f | None -> ());
  hex (Buffer.contents b)

let serve_outcome ~steps (r : Service.Slo.report) =
  {
    steps;
    ops = r.Service.Slo.completed;
    counters = r.counters;
    offered = r.offered;
    digest = serve_digest r;
  }

let serve_open_loop =
  let p = serve_params in
  {
    wname = "serve_open_loop";
    cells =
      List.concat_map
        (fun rate ->
          List.map
            (fun scheme ->
              {
                name = Printf.sprintf "serve_open_loop/%s/rate=%d" scheme rate;
                run =
                  (fun ~seed ~profile ->
                    serve_outcome ~steps:0 (serve_cell ~seed ~profile rate scheme));
                replay =
                  Some
                    (fun ~seed ->
                      (* [Service.Bench.run] does not return
                         [Sim.result.steps]. A replay with a one-event
                         trace ring recovers the global step of the
                         cell's last scheduling event: deterministic,
                         and short of the true count only by the final
                         resumptions of finished workers. *)
                      let tr = Simcore.Trace.create ~capacity:1 in
                      let r =
                        serve_cell ~seed ~profile:false ~tracer:tr rate scheme
                      in
                      let steps =
                        List.fold_left
                          (fun m e -> max m e.Simcore.Trace.step)
                          0 (Simcore.Trace.to_list tr)
                      in
                      serve_outcome ~steps r);
              })
            p.Workload.Serve.schemes)
        p.Workload.Serve.rates;
  }

let all = [ rc_read_mostly; smr_update_heavy; serve_open_loop ]

let find name = List.find_opt (fun w -> w.wname = name) all
