type fault_kind =
  | Use_after_free
  | Double_free
  | Not_a_block
  | Out_of_bounds
  | Null_deref
  | Protection_violation

exception
  Fault of {
    kind : fault_kind;
    addr : int;
    pid : int;
    tag : string option;
  }

let fault_kind_to_string = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Not_a_block -> "free of non-block address"
  | Out_of_bounds -> "out-of-bounds access"
  | Null_deref -> "null dereference"
  | Protection_violation -> "protection violation"

let pp_fault ppf = function
  | Fault { kind; addr; pid; tag } ->
      Format.fprintf ppf "%s addr=%d pid=%d tag=%s"
        (fault_kind_to_string kind) addr pid
        (match tag with Some s -> s | None -> "-")
  | e -> Format.pp_print_string ppf (Printexc.to_string e)

let fault_to_string e = Format.asprintf "%a" pp_fault e

type usage = {
  allocated : int;
  freed : int;
  live : int;
  peak_live : int;
  live_words : int;
}

(* Per-tag bookkeeping: the live count and the [mem.alloc[tag]] /
   [mem.free[tag]] counters, registered on the tag's first allocation. *)
type tag_entry = {
  mutable tag_live : int;
  p_alloc : Telemetry.counter;
  p_free : Telemetry.counter;
}

(* The words, block metadata and coherence state live in the flat
   {!Memcore} record (parallel int arrays) shared with the bytecode
   {!Vm}; this record layers allocation bookkeeping, freelists,
   telemetry and the sanitizer on top. *)
type t = {
  config : Config.t;
  h : Memcore.t;
  (* The pluggable freed-block store ({!Alloc}): the legacy global
     size-class freelist or the pooled constant-time scheme, selected
     by [config.alloc]. Freed blocks are chained in place through the
     block metadata ([b_next]), so alloc and free never allocate or
     hash on the common path under either policy. *)
  al : Alloc.t;
  tags : (string, tag_entry) Hashtbl.t;
  (* One-entry cache in front of [tags], keyed by physical equality:
     tags are constant strings, so a run of allocs/frees of one tag
     skips the string hashing. Starts on a private sentinel that no
     caller's tag can be. *)
  mutable last_tag : string;
  mutable last_entry : tag_entry;
  mutable allocated : int;
  mutable freed : int;
  mutable live : int;
  mutable peak_live : int;
  mutable live_words : int;
  (* Telemetry: one registry per heap; subsystems sharing this heap
     register their probes here (Ar, Drc, smr schemes, cds). *)
  tele : Telemetry.t;
  g_live : Telemetry.gauge;
  g_live_words : Telemetry.gauge;
  c_alloc_fresh : Telemetry.counter;
  c_alloc_reuse : Telemetry.counter;
  c_free : Telemetry.counter;
  (* Sanitizer: always present (no-op entry points when the mode is
     off); [shadows] parallels the block ids and is only
     maintained/indexed when [san_on]. [quarantine] holds
     freed-but-not-yet-reusable block ids in FIFO order. *)
  san : Sanitizer.t;
  san_on : bool;
  mutable shadows : Sanitizer.shadow array;
  quarantine : int Queue.t;
  (* Race checker: always present (no-op when off). Pays no ticks and
     allocates nothing simulated, so arming it perturbs no schedule;
     [race_on] also forces the VM onto the hosted slow path (like the
     sanitizer) so both engines feed it the identical access stream. *)
  race : Racecheck.t;
  race_on : bool;
  (* Flight recorder: always-on bounded ring of recent events (allocs,
     frees, retires, faults) per process, dumped as a merged timeline
     when this heap faults or the sanitizer reports. *)
  recorder : Recorder.t;
}

(* Sentinel filling quarantined blocks; any surviving non-poison word at
   release time indicates the heap's own access checks were bypassed. *)
let poison_word = 0xDEAD_F00D

(* Fresh, so never physically equal to a caller's tag. *)
let no_tag = String.make 1 '\000'

let create config =
  let tele = Telemetry.create () in
  let san = Sanitizer.create config.Config.sanitize tele in
  let san_on = not (Sanitizer.is_off config.Config.sanitize) in
  let race = Racecheck.create config.Config.race tele in
  let race_on = not (Racecheck.is_off config.Config.race) in
  let h = Memcore.acquire config.Config.cost in
  h.Memcore.san_on <- san_on || race_on;
  let g_live = Telemetry.gauge tele "mem.live_blocks" in
  let g_live_words = Telemetry.gauge tele "mem.live_words" in
  let c_alloc_fresh = Telemetry.counter tele "mem.alloc.fresh" in
  let c_alloc_reuse = Telemetry.counter tele "mem.alloc.reuse" in
  let c_free = Telemetry.counter tele "mem.free" in
  {
    config;
    h;
    al =
      Alloc.create ~policy:config.Config.alloc
        ~contended:config.Config.alloc_contention h tele;
    tags = Hashtbl.create 16;
    last_tag = no_tag;
    (* A placeholder, never returned: no tag is [==] to [no_tag]. *)
    last_entry = { tag_live = 0; p_alloc = c_free; p_free = c_free };
    allocated = 0;
    freed = 0;
    live = 0;
    peak_live = 0;
    live_words = 0;
    tele;
    g_live;
    g_live_words;
    c_alloc_fresh;
    c_alloc_reuse;
    c_free;
    san;
    san_on;
    shadows = (if san_on then Array.make 256 (Sanitizer.fresh_shadow ()) else [||]);
    quarantine = Queue.create ();
    race;
    race_on;
    recorder = Recorder.create ~procs:config.Config.cores ();
  }

let telemetry t = t.tele

let allocator t = t.al

let sanitizer t = t.san

let recorder t = t.recorder

let hot t = t.h

let release t = Memcore.release t.h

let tag_entry t tag =
  if tag == t.last_tag then t.last_entry
  else begin
    let e =
      match Hashtbl.find_opt t.tags tag with
      | Some e -> e
      | None ->
          let e =
            {
              tag_live = 0;
              p_alloc = Telemetry.counter t.tele ("mem.alloc[" ^ tag ^ "]");
              p_free = Telemetry.counter t.tele ("mem.free[" ^ tag ^ "]");
            }
          in
          Hashtbl.add t.tags tag e;
          e
    in
    t.last_tag <- tag;
    t.last_entry <- e;
    e
  end

(* Raise a [Fault], first recording an ASan-style sanitizer report
   (header + block provenance + any caller-supplied detail lines) when
   the sanitizer is on. *)
let mem_fault : type a. t -> fault_kind -> addr:int -> ?tag:string ->
    ?extra:string list -> unit -> a =
 fun t kind ~addr ?tag ?(extra = []) () ->
  let pid = Proc.self () in
  if t.san_on then begin
    let h = t.h in
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "==sanitizer== %s: addr=%d pid=%d tag=%s"
         (fault_kind_to_string kind) addr pid
         (match tag with Some s -> s | None -> "-"));
    if
      (Sanitizer.mode t.san).Sanitizer.shadow
      && addr > 0 && addr < h.Memcore.top
      && h.Memcore.block_id.(addr) <> 0
    then
      List.iter
        (fun l -> Buffer.add_string buf ("\n  " ^ l))
        (Sanitizer.provenance t.san t.shadows.(h.Memcore.block_id.(addr)));
    List.iter (fun l -> Buffer.add_string buf ("\n  " ^ l)) extra;
    Buffer.add_string buf
      (Printf.sprintf "\n  faulting access by pid %d at t=%d" pid
         (Proc.global_now ()));
    Sanitizer.report t.san (Buffer.contents buf)
  end;
  Recorder.count t.recorder (fault_kind_to_string kind) addr;
  if Recorder.auto_dump_enabled () then
    Recorder.dump_stderr
      ~header:("flight recorder: " ^ fault_kind_to_string kind)
      t.recorder;
  raise (Fault { kind; addr; pid; tag })

(* Address validation for a data access at [a]; returns the block id. *)
let validate t a =
  let h = t.h in
  if a <= 0 then mem_fault t Null_deref ~addr:a ()
  else if a >= h.Memcore.top then mem_fault t Out_of_bounds ~addr:a ()
  else begin
    let bid = h.Memcore.block_id.(a) in
    if bid = 0 then mem_fault t Out_of_bounds ~addr:a ()
    else if h.Memcore.b_live.(bid) = 0 then
      mem_fault t Use_after_free ~addr:a ~tag:h.Memcore.b_tag.(bid) ()
    else bid
  end

let validate_addr t a = ignore (validate t a)

(* Validation plus sanitizer hooks for a real (tick-charged) access:
   the protection-window audit on SMR-tracked blocks, and the
   recent-ops provenance ring. *)
let check_access ?(write = false) t a =
  let bid = validate t a in
  if t.san_on then begin
    let sh = t.shadows.(bid) in
    let m = Sanitizer.mode t.san in
    let pid = Proc.self () in
    (* Audit only in-simulation dereferences of SMR-tracked blocks that
       were allocated in-simulation. Setup-allocated blocks (structure
       roots, prefill) are immortal or handed over with the structure;
       the allocating pid may touch its own block bare until it is
       published and retired (it owns it outright before publication). *)
    if
      m.Sanitizer.protocol && Sanitizer.tracked sh && pid >= 0
      && Sanitizer.alloc_pid sh >= 0
      && not (pid = Sanitizer.alloc_pid sh && not (Sanitizer.retired sh))
      && not (Sanitizer.pid_shielded t.san ~pid)
    then
      mem_fault t Protection_violation ~addr:a ~tag:t.h.Memcore.b_tag.(bid)
        ~extra:
          [ "SMR-tracked block dereferenced outside any protection window" ]
        ();
    if m.Sanitizer.shadow then
      Sanitizer.note_access t.san sh ~write ~pid ~time:(Proc.global_now ())
  end

(* {1 Race checker glue}

   Decorate a conflict from {!Racecheck} with block provenance and
   record it the way sanitizer reports are recorded: an ASan-style
   text (retained, counted, recorder-noted, auto-dumped). Races never
   raise — the run completes and the audit reads the report list. *)

let race_note t (r : Racecheck.race) =
  let h = t.h in
  let addr = r.Racecheck.r_addr in
  let bid =
    if addr > 0 && addr < h.Memcore.top then h.Memcore.block_id.(addr) else 0
  in
  let side (s : Racecheck.side) =
    Printf.sprintf "%s by pid %d at t=%d" s.Racecheck.s_what s.Racecheck.s_pid
      s.Racecheck.s_time
  in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "==racecheck== data race: addr=%d tag=%s" addr
       (if bid <> 0 then h.Memcore.b_tag.(bid) else "-"));
  Buffer.add_string buf ("\n  " ^ side r.Racecheck.r_cur);
  Buffer.add_string buf ("\n  conflicts with earlier " ^ side r.Racecheck.r_prev);
  (match if bid <> 0 then Racecheck.alloc_site t.race ~bid else None with
  | Some (apid, atime) ->
      Buffer.add_string buf
        (Printf.sprintf "\n  block allocated by pid %d at t=%d (tag %s)" apid
           atime h.Memcore.b_tag.(bid))
  | None -> ());
  Racecheck.report t.race (Buffer.contents buf);
  Recorder.count t.recorder "data-race" addr;
  if Recorder.auto_dump_enabled () then
    Recorder.dump_stderr ~header:"flight recorder: racecheck report" t.recorder

let race_read t a =
  match
    Racecheck.on_read t.race ~addr:a ~pid:(Proc.self ())
      ~time:(Proc.global_now ())
  with
  | Some r -> race_note t r
  | None -> ()

let race_write t a =
  match
    Racecheck.on_write t.race ~addr:a ~pid:(Proc.self ())
      ~time:(Proc.global_now ())
  with
  | Some r -> race_note t r
  | None -> ()

let race_rmw t a =
  match
    Racecheck.on_rmw t.race ~addr:a ~pid:(Proc.self ())
      ~time:(Proc.global_now ())
  with
  | Some r -> race_note t r
  | None -> ()

(* {1 Allocation} *)

let new_block_slot t =
  let h = t.h in
  let id = h.Memcore.n_blocks in
  Memcore.ensure_block h id;
  h.Memcore.n_blocks <- id + 1;
  h.Memcore.b_base.(id) <- 0;
  h.Memcore.b_size.(id) <- 0;
  h.Memcore.b_live.(id) <- 0;
  h.Memcore.b_freed_by.(id) <- -1;
  h.Memcore.b_next.(id) <- 0;
  h.Memcore.b_tag.(id) <- "";
  id

(* Block bases sit on cache-line-PAIR boundaries ({!Memcore.alloc_align}):
   part of the address-obliviousness construction that keeps results
   independent of the allocator policy (see {!Memcore.reset_lines}). *)
let round_up_align a =
  (a + Memcore.alloc_align - 1) / Memcore.alloc_align * Memcore.alloc_align

(* Ensure [t.shadows] covers block [id] with a fresh record. *)
let shadow_slot t id =
  if id >= Array.length t.shadows then
    t.shadows <-
      Memcore.grow_array t.shadows ~needed:(id + 1) ~fill:t.shadows.(0);
  t.shadows.(id) <- Sanitizer.fresh_shadow ()

let alloc t ~tag ~size =
  assert (size > 0);
  let h = t.h in
  if h.Memcore.top = 0 then mem_fault t Out_of_bounds ~addr:0 ~tag ();
  let pid = Proc.self () in
  (* Plan first (a pure peek of the path the acquisition will take,
     plus the modeled metadata-contention ticks, if any), then pay,
     then acquire. Only pays consume virtual time, so bracketing
     exactly the pay attributes the allocation cost to the [Alloc]
     phase and its per-source child. The pay may interleave other
     processes, so the path actually taken by [acquire] can differ
     from the plan under contention — the attribution is a model, the
     freelist mutation itself is atomic either way. *)
  let plan =
    if t.config.Config.reuse then Alloc.plan_acquire t.al ~pid ~size
    else { Alloc.source = Alloc.Fresh; cost = 0 }
  in
  Profiler.enter Profiler.Alloc;
  (match plan.Alloc.source with
  | Alloc.Local -> Profiler.enter Profiler.Alloc_local
  | Alloc.Steal -> Profiler.enter Profiler.Alloc_steal
  | Alloc.Fresh -> ());
  Proc.pay (h.Memcore.c_alloc + plan.Alloc.cost);
  (match plan.Alloc.source with
  | Alloc.Local | Alloc.Steal -> Profiler.exit ()
  | Alloc.Fresh -> ());
  Profiler.exit ();
  let bid = if t.config.Config.reuse then Alloc.acquire t.al ~pid ~size else 0 in
  let id, base =
    match bid with
    | id when id <> 0 ->
        (* Reuse in place: same base, fresh contents, and canonically
           cold coherence lines — so downstream costs cannot depend on
           which block the policy picked (DESIGN.md §4j). *)
        let base = h.Memcore.b_base.(id) in
        Array.fill h.Memcore.words base h.Memcore.b_size.(id) 0;
        Memcore.reset_lines h ~base ~size:h.Memcore.b_size.(id);
        h.Memcore.b_live.(id) <- 1;
        h.Memcore.b_tag.(id) <- tag;
        h.Memcore.b_freed_by.(id) <- -1;
        (id, base)
    | _ ->
        let base = round_up_align h.Memcore.top in
        Memcore.ensure_words h (base + size);
        h.Memcore.top <- base + size;
        let id = new_block_slot t in
        h.Memcore.b_base.(id) <- base;
        h.Memcore.b_size.(id) <- size;
        h.Memcore.b_tag.(id) <- tag;
        h.Memcore.b_live.(id) <- 1;
        Array.fill h.Memcore.block_id base size id;
        if t.san_on then shadow_slot t id;
        (id, base)
  in
  if t.san_on then
    Sanitizer.shadow_alloc t.san t.shadows.(id) ~pid:(Proc.self ())
      ~time:(Proc.global_now ());
  if t.race_on then
    Racecheck.on_alloc t.race ~bid:id ~base ~size:h.Memcore.b_size.(id)
      ~pid:(Proc.self ()) ~time:(Proc.global_now ());
  t.allocated <- t.allocated + 1;
  t.live <- t.live + 1;
  t.live_words <- t.live_words + size;
  if t.live > t.peak_live then t.peak_live <- t.live;
  let te = tag_entry t tag in
  te.tag_live <- te.tag_live + 1;
  Telemetry.incr (if bid <> 0 then t.c_alloc_reuse else t.c_alloc_fresh);
  Telemetry.incr te.p_alloc;
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  Recorder.count t.recorder tag base;
  base

(* Release the oldest quarantined block back to the freelist, verifying
   its poison first (a damaged sentinel means the heap's own access
   checks were bypassed — an internal invariant violation). *)
let quarantine_release_oldest t =
  let h = t.h in
  let old = Queue.pop t.quarantine in
  let base = h.Memcore.b_base.(old) and size = h.Memcore.b_size.(old) in
  let intact = ref true in
  for i = base to base + size - 1 do
    if h.Memcore.words.(i) <> poison_word then intact := false
  done;
  if not !intact then begin
    Sanitizer.report t.san
      (Printf.sprintf
         "==sanitizer== quarantine poison damaged: addr=%d tag=%s" base
         h.Memcore.b_tag.(old));
    if Recorder.auto_dump_enabled () then
      Recorder.dump_stderr ~header:"flight recorder: sanitizer report"
        t.recorder
  end;
  Array.fill h.Memcore.words base size 0;
  Sanitizer.set_quarantined t.shadows.(old) false;
  if t.config.Config.reuse then
    Alloc.release t.al ~pid:(Proc.self ()) ~bid:old

let free t a =
  let h = t.h in
  (* Peek the size for the release plan without validating: a bogus
     address gets cost 0 here and faults below, after the [c_free]
     charge — exactly the legacy validation order. *)
  let release_cost =
    if not t.config.Config.alloc_contention then 0
    else begin
      let bid =
        if a > 0 && a < h.Memcore.top then h.Memcore.block_id.(a) else 0
      in
      if bid <> 0 && h.Memcore.b_base.(bid) = a && h.Memcore.b_live.(bid) = 1
      then
        Alloc.plan_release t.al ~pid:(Proc.self ())
          ~size:h.Memcore.b_size.(bid)
      else 0
    end
  in
  Profiler.enter Profiler.Free;
  Proc.pay (h.Memcore.c_free + release_cost);
  Profiler.exit ();
  Recorder.count t.recorder "free" a;
  if a <= 0 || a >= h.Memcore.top then mem_fault t Not_a_block ~addr:a ();
  let bid = h.Memcore.block_id.(a) in
  if bid = 0 then mem_fault t Not_a_block ~addr:a ();
  let tag = h.Memcore.b_tag.(bid) in
  if h.Memcore.b_base.(bid) <> a then mem_fault t Not_a_block ~addr:a ~tag ();
  if h.Memcore.b_live.(bid) = 0 then mem_fault t Double_free ~addr:a ~tag ();
  if t.san_on && (Sanitizer.mode t.san).Sanitizer.protocol then begin
    let n = Sanitizer.protected_count t.san a in
    if n > 0 then
      mem_fault t Protection_violation ~addr:a ~tag
        ~extra:
          (List.map
             (fun (p, how) ->
               Printf.sprintf "still protected by pid %d (%s)" p how)
             (Sanitizer.protectors t.san a))
        ()
  end;
  h.Memcore.b_live.(bid) <- 0;
  h.Memcore.b_freed_by.(bid) <- Proc.self ();
  if t.race_on then Racecheck.on_free t.race ~bid ~pid:(Proc.self ());
  t.freed <- t.freed + 1;
  t.live <- t.live - 1;
  t.live_words <- t.live_words - h.Memcore.b_size.(bid);
  let te = tag_entry t tag in
  te.tag_live <- te.tag_live - 1;
  Telemetry.incr t.c_free;
  Telemetry.incr te.p_free;
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  if t.san_on then begin
    Sanitizer.shadow_free t.san t.shadows.(bid) ~pid:(Proc.self ())
      ~time:(Proc.global_now ());
    let q = (Sanitizer.mode t.san).Sanitizer.quarantine in
    if q > 0 then begin
      (* Poison and hold the block out of the freelist for the next [q]
         frees; stale pointers keep faulting instead of silently reading
         the reused block. *)
      Array.fill h.Memcore.words h.Memcore.b_base.(bid) h.Memcore.b_size.(bid)
        poison_word;
      Sanitizer.set_quarantined t.shadows.(bid) true;
      Queue.push bid t.quarantine;
      if Queue.length t.quarantine > q then quarantine_release_oldest t;
      Sanitizer.set_quarantine_level t.san (Queue.length t.quarantine)
    end
    else if t.config.Config.reuse then
      Alloc.release t.al ~pid:(Proc.self ()) ~bid
  end
  else if t.config.Config.reuse then
    Alloc.release t.al ~pid:(Proc.self ()) ~bid

(* {1 Atomic word operations}

   Each fetches the ambient environment once and pays inline
   ({!Proc.pay_env}): the former [Coherence.cost .. Proc.pay ..]
   sequence performed two domain-local lookups per access, which
   dominated the host-path op cost. Outside a simulation the coherence
   transition still happens (with pid [-1]) and the pay is skipped,
   exactly as before. *)

(* The address an access at [a] is charged to: [a] itself inside the
   heap, else 0, on the null line that no block occupies. A wild address
   then pays a cold-line price and faults in validation (pay before
   fault, as for any invalid access) instead of indexing the line arrays
   out of range or growing them to cover it; and {!release} can scrub
   lines only up to [top]. A released heap has no lines to charge and
   faults at once. The guard stays out of {!Memcore}: the allocator's
   private coherence domain charges lines beyond its own [top]. *)
let null_line t a =
  if t.h.Memcore.top = 0 then validate_addr t a;
  0

(* Profiling splits each access cost into the scheme-independent floor
   (an L1 read, an owned-line RMW) charged to the surrounding phase,
   and the cache-coherence penalty above it, demoted to the phase's
   [Coherence] child — [pay_env] charges the full cost first, then
   {!Profiler.demote} moves the penalty. With profiling off both are
   one no-op match. *)

let read t a =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c = Memcore.cost_read h ~pid:e.Proc.pid ~addr:ca in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_l1)
  | None -> ignore (Memcore.cost_read h ~pid:(-1) ~addr:ca));
  check_access t a;
  if t.race_on then race_read t a;
  h.Memcore.words.(a)

let write t a v =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c = Memcore.cost_write h ~pid:e.Proc.pid ~addr:ca in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_rmw_owned)
  | None -> ignore (Memcore.cost_write h ~pid:(-1) ~addr:ca));
  check_access ~write:true t a;
  if t.race_on then race_write t a;
  h.Memcore.words.(a) <- v

let cas t a ~expected ~desired =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c = Memcore.cost_write h ~pid:e.Proc.pid ~addr:ca in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_rmw_owned)
  | None -> ignore (Memcore.cost_write h ~pid:(-1) ~addr:ca));
  check_access ~write:true t a;
  if t.race_on then race_rmw t a;
  if h.Memcore.words.(a) = expected then begin
    h.Memcore.words.(a) <- desired;
    true
  end
  else false

let faa t a d =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c = Memcore.cost_write h ~pid:e.Proc.pid ~addr:ca in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_rmw_owned)
  | None -> ignore (Memcore.cost_write h ~pid:(-1) ~addr:ca));
  check_access ~write:true t a;
  if t.race_on then race_rmw t a;
  let old = h.Memcore.words.(a) in
  h.Memcore.words.(a) <- old + d;
  old

let fas t a v =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c = Memcore.cost_write h ~pid:e.Proc.pid ~addr:ca in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_rmw_owned)
  | None -> ignore (Memcore.cost_write h ~pid:(-1) ~addr:ca));
  check_access ~write:true t a;
  if t.race_on then race_rmw t a;
  let old = h.Memcore.words.(a) in
  h.Memcore.words.(a) <- v;
  old

let cas2 t a ~e0 ~e1 ~d0 ~d1 =
  let h = t.h in
  let ca = if a > 0 && a < h.Memcore.top then a else null_line t a in
  (match Proc.get_env () with
  | Some e ->
      let c =
        Memcore.cost_write h ~pid:e.Proc.pid ~addr:ca
        + h.Memcore.c_dwcas_extra
      in
      Proc.pay_env e c;
      Profiler.demote e (c - h.Memcore.c_rmw_owned - h.Memcore.c_dwcas_extra)
  | None -> ignore (Memcore.cost_write h ~pid:(-1) ~addr:ca));
  check_access ~write:true t a;
  check_access ~write:true t (a + 1);
  if t.race_on then begin
    race_rmw t a;
    race_rmw t (a + 1)
  end;
  if h.Memcore.words.(a) = e0 && h.Memcore.words.(a + 1) = e1 then begin
    h.Memcore.words.(a) <- d0;
    h.Memcore.words.(a + 1) <- d1;
    true
  end
  else false

(* {1 Debug access} *)

(* Debug access bypasses the sanitizer hooks (no protection audit, no
   provenance-ring pollution): oracles peek at will. *)
let peek t a =
  let _bid = validate t a in
  t.h.Memcore.words.(a)

let block_is_live t a =
  let h = t.h in
  a > 0 && a < h.Memcore.top
  && h.Memcore.block_id.(a) <> 0
  && h.Memcore.b_live.(h.Memcore.block_id.(a)) = 1

let block_base t a =
  let bid = validate t a in
  t.h.Memcore.b_base.(bid)

let block_tag t a =
  let h = t.h in
  if a <= 0 || a >= h.Memcore.top || h.Memcore.block_id.(a) = 0 then None
  else Some h.Memcore.b_tag.(h.Memcore.block_id.(a))

(* {1 Accounting} *)

let usage t =
  {
    allocated = t.allocated;
    freed = t.freed;
    live = t.live;
    peak_live = t.peak_live;
    live_words = t.live_words;
  }

let live_with_tag t tag =
  match Hashtbl.find_opt t.tags tag with Some e -> e.tag_live | None -> 0

let iter_live t f =
  let h = t.h in
  for id = 1 to h.Memcore.n_blocks - 1 do
    if h.Memcore.b_live.(id) = 1 then
      f ~base:h.Memcore.b_base.(id) ~size:h.Memcore.b_size.(id)
        ~tag:h.Memcore.b_tag.(id)
  done

(* {1 Sanitizer annotations} *)

let mark_smr t a =
  let h = t.h in
  if t.san_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0 then
    Sanitizer.set_tracked t.shadows.(h.Memcore.block_id.(a))

let retire_note t a =
  let h = t.h in
  Recorder.count t.recorder "retire" a;
  if t.race_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0 then
    Racecheck.on_retire t.race ~bid:h.Memcore.block_id.(a) ~pid:(Proc.self ());
  if t.san_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0
  then begin
    let bid = h.Memcore.block_id.(a) in
    if
      Sanitizer.note_retire t.san t.shadows.(bid) ~pid:(Proc.self ())
        ~time:(Proc.global_now ())
      && h.Memcore.b_live.(bid) = 1
    then
      mem_fault t Double_free ~addr:a ~tag:h.Memcore.b_tag.(bid)
        ~extra:[ "second retire of the same block (double retire)" ] ()
  end

let leaks_by_site t =
  if not (t.san_on && (Sanitizer.mode t.san).Sanitizer.leaks) then []
  else begin
    let h = t.h in
    let tbl = Hashtbl.create 16 in
    for id = 1 to h.Memcore.n_blocks - 1 do
      if h.Memcore.b_live.(id) = 1 then begin
        let key = (h.Memcore.b_tag.(id), Sanitizer.alloc_pid t.shadows.(id)) in
        let c, w =
          match Hashtbl.find_opt tbl key with Some cw -> cw | None -> (0, 0)
        in
        Hashtbl.replace tbl key (c + 1, w + h.Memcore.b_size.(id))
      end
    done;
    Hashtbl.fold (fun (tag, pid) (c, w) acc -> (tag, pid, c, w) :: acc) tbl []
    |> List.sort (fun (t1, p1, c1, _) (t2, p2, c2, _) ->
           match compare c2 c1 with
           | 0 -> compare (t1, p1) (t2, p2)
           | n -> n)
  end

let sanitizer_reports t = Sanitizer.reports t.san

(* {1 Race-checker annotations} *)

let racecheck t = t.race

let mark_race_sync t a =
  if t.race_on && a > 0 then Racecheck.mark_sync t.race ~addr:a

let race_reports t = Racecheck.reports t.race

let race_report_count t = Racecheck.report_count t.race
