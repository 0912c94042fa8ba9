(* The flat hot core of the simulated machine: every word the
   deref/CAS path touches, in parallel unboxed int arrays.

   {!Memory} owns one of these and layers allocation bookkeeping,
   telemetry and the sanitizer on top; {!Vm} reads it directly so a
   compiled instruction stream can run an entire run-ahead window
   without crossing a module boundary (no flambda: cross-module calls
   never inline, so the bytecode interpreter must see these fields
   first-hand). Block metadata lives in parallel arrays indexed by
   block id — the former per-block record cost a pointer chase per
   validation — and the coherence line/L1 state rides in the same
   record so one load reaches everything an access needs. *)

type t = {
  (* Heap words. *)
  mutable words : int array;
  mutable block_id : int array;  (* 0 = no block; parallel to [words] *)
  mutable top : int;  (* next unallocated address *)
  (* Block metadata, indexed by block id (slot 0 unused). *)
  mutable n_blocks : int;
  mutable b_base : int array;
  mutable b_size : int array;
  mutable b_live : int array;  (* 1 = live, 0 = freed *)
  mutable b_freed_by : int array;
  mutable b_next : int array;  (* intrusive freelist link; 0 = end *)
  mutable b_tag : string array;
  (* Coherence: per-line MESI-ish state, packed
     [(owner + 1) lsl 1 lor exclusive]; zero = shared, no owner. *)
  mutable lines : int array;
  mutable vers : int array;  (* bumped on every write *)
  (* Two-entry per-process "L1", direct-mapped on line parity. *)
  mutable l1_line : int array;
  mutable l1_ver : int array;
  (* Cost scalars, denormalized out of the config record. *)
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
  (* Sanitizer armed: compiled memory ops must take the slow
     ({!Memory}) path so shadow/protocol hooks run. *)
  mutable san_on : bool;
}

let line_words = 8

(* Blocks are allocated on cache-line-PAIR boundaries (128 simulated
   bytes, jemalloc-style small-class slabs). Pair alignment fixes the
   parity of every line of a block relative to its base, which — with
   {!reset_lines} canonicalizing reused lines to cold — makes every
   post-alloc access cost independent of *which* same-size block the
   allocator returned. That address-obliviousness is what lets two
   different allocator policies print byte-identical tables (DESIGN.md
   §4j). *)
let alloc_align = 2 * line_words

let max_pids = 1024

(* The single array-doubling helper behind every growable array here
   and in {!Memory} (words, block ids, metadata, shadows): returns a
   copy of [a] grown to at least [needed], at least doubled. *)
let grow_array a ~needed ~fill =
  let n = Array.length a in
  let b = Array.make (max needed (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

(* An empty heap over [s]'s storage, priced by [cost]. *)
let with_cost cost s =
  {
    s with
    (* Skip the first line so that address 0 is never valid. *)
    top = line_words;
    n_blocks = 1;
    c_l1 = cost.Config.c_l1;
    c_hit = cost.Config.c_hit;
    c_read_miss = cost.Config.c_read_miss;
    c_rmw_owned = cost.Config.c_rmw_owned;
    c_rmw_transfer = cost.Config.c_rmw_transfer;
    c_dwcas_extra = cost.Config.c_dwcas_extra;
    c_alloc = cost.Config.c_alloc;
    c_free = cost.Config.c_free;
    san_on = false;
  }

(* Fresh storage: every array at its initial length and canonical
   contents. {!scrub} restores exactly these contents, so recycled
   storage reads the same index by index (only longer). *)
let create cost =
  with_cost cost
    {
      words = Array.make (1 lsl 12) 0;
      block_id = Array.make (1 lsl 12) 0;
      top = 0;
      n_blocks = 0;
      b_base = Array.make 256 0;
      b_size = Array.make 256 0;
      b_live = Array.make 256 0;
      b_freed_by = Array.make 256 (-1);
      b_next = Array.make 256 0;
      b_tag = Array.make 256 "";
      lines = Array.make 1024 0;
      vers = Array.make 1024 0;
      l1_line = Array.make (2 * max_pids) (-1);
      l1_ver = Array.make (2 * max_pids) (-1);
      c_l1 = 0;
      c_hit = 0;
      c_read_miss = 0;
      c_rmw_owned = 0;
      c_rmw_transfer = 0;
      c_dwcas_extra = 0;
      c_alloc = 0;
      c_free = 0;
      san_on = false;
    }

let ensure_words t needed =
  if needed > Array.length t.words then begin
    t.words <- grow_array t.words ~needed ~fill:0;
    t.block_id <- grow_array t.block_id ~needed ~fill:0
  end

let ensure_block t id =
  if id >= Array.length t.b_base then begin
    let needed = id + 1 in
    t.b_base <- grow_array t.b_base ~needed ~fill:0;
    t.b_size <- grow_array t.b_size ~needed ~fill:0;
    t.b_live <- grow_array t.b_live ~needed ~fill:0;
    t.b_freed_by <- grow_array t.b_freed_by ~needed ~fill:(-1);
    t.b_next <- grow_array t.b_next ~needed ~fill:0;
    t.b_tag <- grow_array t.b_tag ~needed ~fill:""
  end

(* {1 Coherence} *)

let line_of_addr addr = addr / line_words

let ensure_line t line =
  if line >= Array.length t.lines then begin
    let needed = line + 1 in
    t.lines <- grow_array t.lines ~needed ~fill:0;
    t.vers <- grow_array t.vers ~needed ~fill:0
  end

(* A second coherence domain with the same cost model but its own
   line/L1 state: the pooled allocator models contention on its *own*
   metadata (pool heads, exchange slots) without perturbing the
   simulated heap's line states. *)
let create_like t =
  create
    {
      Config.c_l1 = t.c_l1;
      c_hit = t.c_hit;
      c_read_miss = t.c_read_miss;
      c_rmw_owned = t.c_rmw_owned;
      c_rmw_transfer = t.c_rmw_transfer;
      c_dwcas_extra = t.c_dwcas_extra;
      c_alloc = t.c_alloc;
      c_free = t.c_free;
      c_local = 0;
    }

(* Canonicalize a block's lines to cold on (re)allocation: no owner, and
   a version bump so every stale L1 entry — in any process's way — misses
   deterministically. Fresh lines are virgin (never remembered), so after
   this runs the access costs on a reused block match those on a fresh
   one exactly, whichever block the allocator picked. *)
let reset_lines t ~base ~size =
  let last = line_of_addr (base + size - 1) in
  ensure_line t last;
  for line = line_of_addr base to last do
    t.lines.(line) <- 0;
    t.vers.(line) <- t.vers.(line) + 1
  done

let pid_slot pid = if pid < 0 || pid >= max_pids then max_pids - 1 else pid

(* Direct-mapped on the line's parity bit: adjacent hot lines (node vs
   announcement slots) land in different ways often enough. *)
let way pid line = (2 * pid_slot pid) + (line land 1)

let remember t pid line =
  let w = way pid line in
  t.l1_line.(w) <- line;
  t.l1_ver.(w) <- t.vers.(line)

let cost_read t ~pid ~addr =
  let line = line_of_addr addr in
  ensure_line t line;
  let s = t.lines.(line) in
  if s land 1 = 1 && (s lsr 1) - 1 <> pid then begin
    (* Exclusively held elsewhere: demote to shared. *)
    t.lines.(line) <- 0;
    remember t pid line;
    t.c_read_miss
  end
  else begin
    let w = way pid line in
    if t.l1_line.(w) = line && t.l1_ver.(w) = t.vers.(line) then t.c_l1
    else begin
      t.l1_line.(w) <- line;
      t.l1_ver.(w) <- t.vers.(line);
      t.c_hit
    end
  end

let cost_write t ~pid ~addr =
  let line = line_of_addr addr in
  ensure_line t line;
  let s = t.lines.(line) in
  let owned = s land 1 = 1 && (s lsr 1) - 1 = pid in
  t.lines.(line) <- ((pid + 1) lsl 1) lor 1;
  t.vers.(line) <- t.vers.(line) + 1;
  remember t pid line;
  if owned then t.c_rmw_owned else t.c_rmw_transfer

(* {1 Storage reuse}

   A cell's heap grows its arrays by doubling from a few thousand words;
   building and re-growing them per cell was most of a large cell's host
   allocation and drove the major collections of a sweep. Each domain
   keeps one spare set instead: {!release} scrubs the prefix a heap
   touched back to {!create}'s contents and parks the arrays here, and
   {!acquire} hands them to the domain's next heap. Domain-local, so
   pool workers never share storage. *)

let spare : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None) (* lint: allow-atomic *)

let acquire cost =
  match Domain.DLS.get spare with (* lint: allow-atomic *)
  | Some s ->
      Domain.DLS.set spare None; (* lint: allow-atomic *)
      with_cost cost s
  | None -> create cost

(* Below [top] lie every word and block-id a heap wrote and, as long as
   every charged access is inside [1, top) or on the null line 0 (the
   {!Memory} and {!Vm} entry points guarantee it), every line it
   touched; below [n_blocks], every block slot. *)
let scrub t =
  Array.fill t.words 0 t.top 0;
  Array.fill t.block_id 0 t.top 0;
  let n = t.n_blocks in
  Array.fill t.b_base 0 n 0;
  Array.fill t.b_size 0 n 0;
  Array.fill t.b_live 0 n 0;
  Array.fill t.b_freed_by 0 n (-1);
  Array.fill t.b_next 0 n 0;
  Array.fill t.b_tag 0 n "";
  let nl = min (Array.length t.lines) (line_of_addr (t.top - 1) + 1) in
  Array.fill t.lines 0 nl 0;
  Array.fill t.vers 0 nl 0;
  Array.fill t.l1_line 0 (Array.length t.l1_line) (-1);
  Array.fill t.l1_ver 0 (Array.length t.l1_ver) (-1)

let release t =
  if t.top > 0 then begin
    scrub t;
    Domain.DLS.set spare (Some { t with top = 0 }); (* lint: allow-atomic *)
    (* Emptied, so a stale heap faults instead of reaching the next
       cell's words. *)
    t.top <- 0;
    t.n_blocks <- 0;
    t.words <- [||];
    t.block_id <- [||];
    t.b_base <- [||];
    t.b_size <- [||];
    t.b_live <- [||];
    t.b_freed_by <- [||];
    t.b_next <- [||];
    t.b_tag <- [||];
    t.lines <- [||];
    t.vers <- [||];
    t.l1_line <- [||];
    t.l1_ver <- [||]
  end
