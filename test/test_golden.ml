(* Golden digests for the host-bodied benchmark cells: cells whose
   operation is an OCaml closure (Figure 7, the 6e–6h stack, Figure R,
   the serving benchmark) have a single execution driver, so there is no
   second mode to compare them against. Instead one small cell of each
   is pinned to an MD5 of its full observable result — op and step
   counts, makespan, the float series bit for bit, the whole telemetry
   snapshot. A change to the simulated model of these cells moves a
   digest (re-pin it deliberately); a host-side optimisation must not. *)

module Measure = Workload.Measure
module H = Simcore.Stats.Histogram

let render_counters b counters =
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) counters

let render_point (p : Measure.point) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "threads=%d ops=%d steps=%d makespan=%d tput=%h mem=%h|"
    p.threads p.ops p.steps p.makespan p.throughput p.mem_metric;
  render_counters b p.counters;
  Buffer.contents b

let render_hist b name h =
  Printf.bprintf b "%s: n=%d mean=%h max=%d" name (H.count h) (H.mean h)
    (H.max_sample h);
  List.iter
    (fun q -> Printf.bprintf b " q%g=%h" q (H.quantile h q))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Buffer.add_char b '|'

let render_report (r : Service.Slo.report) =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "%s rate=%d offered=%d completed=%d ok=%d shed=%d makespan=%d|" r.scheme
    r.rate r.offered r.completed r.ok r.shed r.makespan;
  render_hist b "latency" r.latency;
  render_hist b "queueing" r.queueing;
  render_counters b r.counters;
  (match r.flight with Some f -> Buffer.add_string b f | None -> ());
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)

let fig7_bst_hp ?(size = 32) () =
  render_point
    (Workload.Fig7.point ~structure:Workload.Fig7.Bst_set ~scheme:"HP"
       ~threads:4 ~horizon:3_000 ~seed:42 ~size ~update_pct:50 ())

(* (name, rendering of one small cell, expected digest). *)
let cells =
  [
    ( "fig7 bst/HP",
      (fun () -> fig7_bst_hp ()),
      "30ce465ca50ab3f27d3570d8e1c213a0" );
    ( "fig6 stack/DRC",
      (fun () ->
        render_point
          (Workload.Fig6.stack_point
             (module Rc_baselines.Drc_scheme.Plain)
             ~threads:4 ~horizon:3_000 ~seed:42 ~n_stacks:2 ~init_size:8
             ~p_update:0.5)),
      "fdf685aa21aa968d93c594e97e070fed" );
    ( "fig robust DEBRA+/stall-1",
      (fun () ->
        let pt, series =
          Workload.Fig_robust.point ~scheme:"DEBRA+"
            ~fault:Workload.Fig_robust.Stall_one ~threads:4 ~horizon:6_000
            ~seed:42 ~size:16 ~update_pct:50 ()
        in
        render_point pt
        ^ String.concat ","
            (List.map (fun (i, v) -> Printf.sprintf "%d:%d" i v) series)),
      "248a00eca4c060fa5f9cde53dad20e80" );
    ( "service DRC (+snap) open loop",
      (fun () ->
        render_report
          (Service.Bench.run ~seed:5
             {
               Service.Bench.scheme = "DRC (+snap)";
               rate = 60;
               duration = 3_000;
               arrival = Service.Loadgen.Poisson;
               key_dist = Service.Loadgen.Zipfian 0.9;
               mix = Service.Loadgen.default_mix;
               clients = 8;
               workers = 4;
               keyspace = 128;
               buckets = 64;
               prefill = 64;
               queue_cap = 8;
               slo = 2_000;
             })),
      "fd05fede264d01da2297fd40f1be0c35" );
  ]

(* DRC with a [destruct] that drops its reference: every loaded object
   leaks, so a load/store cell runs to the end and then raises. *)
module Leaky = struct
  include Rc_baselines.Drc_scheme.Plain

  let destruct _ _ = ()

  let vm_ops _ = None
end

(* Cells recycle their domain's heap storage ({!Simcore.Memory.release}):
   a cell must read the same whether its domain's storage is fresh, left
   by a larger cell, or left by a cell that raised mid-way. *)
let test_recycled_cells () =
  let fresh =
    Domain.join (Domain.spawn (fun () -> fig7_bst_hp ())) (* lint: allow-atomic *)
  in
  ignore (fig7_bst_hp ~size:1024 ());
  let m = Simcore.Memory.create Simcore.Config.small in
  let spare_words = Array.length (Simcore.Memory.hot m).Simcore.Memcore.words in
  Simcore.Memory.release m;
  Alcotest.(check bool)
    "larger cell left grown storage" true (spare_words > 1 lsl 12);
  let after_larger = fig7_bst_hp () in
  (match
     Workload.Fig6.loadstore_point
       (module Leaky)
       ~threads:4 ~horizon:3_000 ~seed:42 ~n_locs:10 ~p_store:0.5
   with
  | _ -> Alcotest.fail "the leaky cell should raise"
  | exception Failure _ -> ());
  let after_raise = fig7_bst_hp () in
  Alcotest.(check string) "after a larger cell" fresh after_larger;
  Alcotest.(check string) "after a cell that raised" fresh after_raise;
  Alcotest.(check string) "fresh digest" "30ce465ca50ab3f27d3570d8e1c213a0"
    (digest fresh)

let suite =
  List.map
    (fun (name, render, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ " digest") expected (digest (render ()))))
    cells
  @ [
      Alcotest.test_case "recycled storage (fresh/larger/raised)" `Quick
        test_recycled_cells;
    ]
