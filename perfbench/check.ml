(* The output check. A cell fails if it raises (a memory fault, a leak,
   broken profiler conservation or service request accounting all raise
   inside the workload layer) or if its simulated-result digest differs
   from the reference: the committed digest when the seed has one, else
   the digest of the cell's first execution in this process. *)

(* Committed digests: one [seed<TAB>cell<TAB>digest] line each. *)
let load path =
  let tbl = Hashtbl.create 1024 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ seed; cell; d ] -> Hashtbl.replace tbl (int_of_string seed, cell) d
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

let has_seed tbl seed =
  Hashtbl.fold (fun (s, _) _ acc -> acc || s = seed) tbl false

type t = {
  committed : (int * string, string) Hashtbl.t;
  first : (string, string) Hashtbl.t;  (** first digest per cell name *)
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first, capped *)
}

let create ~committed ~seed =
  {
    committed;
    first = Hashtbl.create 64;
    seed;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 20 then t.failures <- msg :: t.failures

(* [digest_ok t name d] records [d] as the cell's first digest if it is
   new and reports whether it matches the reference. *)
let digest_ok t name d =
  let expected =
    match Hashtbl.find_opt t.committed (t.seed, name) with
    | Some e -> Some e
    | None -> Hashtbl.find_opt t.first name
  in
  if not (Hashtbl.mem t.first name) then Hashtbl.replace t.first name d;
  match expected with
  | Some e when e <> d ->
      fail t (Printf.sprintf "%s: digest %s, expected %s" name d e);
      false
  | Some _ | None -> true

(* Run one cell execution under the check; [None] if it failed. *)
let cell t name f =
  t.attempted <- t.attempted + 1;
  match f () with
  | exception e ->
      fail t (Printf.sprintf "%s: raised %s" name (Printexc.to_string e));
      None
  | (o : Cells.outcome) -> if digest_ok t name o.Cells.digest then Some o else None

let failed_frac t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
