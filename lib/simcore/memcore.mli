(** The flat hot state of one simulated machine — heap words, block
    metadata and coherence-line state in parallel unboxed int arrays.

    Internal to the simulator: {!Memory} owns and maintains one; {!Vm}
    reads the fields directly so compiled instruction streams never
    cross a module boundary on the access fast path (the repo builds
    without flambda, so cross-module calls do not inline). Algorithm
    and workload code should use {!Memory}. The record is exposed
    transparently for exactly those two clients. *)

type t = {
  mutable words : int array;
  mutable block_id : int array;
  mutable top : int;
  mutable n_blocks : int;
  mutable b_base : int array;
  mutable b_size : int array;
  mutable b_live : int array;  (** 1 = live, 0 = freed *)
  mutable b_freed_by : int array;
  mutable b_next : int array;
  mutable b_tag : string array;
  mutable lines : int array;
  mutable vers : int array;
  mutable l1_line : int array;
  mutable l1_ver : int array;
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
  mutable san_on : bool;
}

val line_words : int

val alloc_align : int
(** Block base alignment in words (a cache-line pair). Fixing each
    block line's parity relative to its base keeps the two-way L1's way
    choice — and with it every access cost — independent of which
    same-size block an allocator returns (DESIGN.md §4j). *)

val max_pids : int

val grow_array : 'a array -> needed:int -> fill:'a -> 'a array
(** [grow_array a ~needed ~fill] is a copy of [a] grown to at least
    [needed] entries (at least doubling), new entries set to [fill] —
    the one array-doubling dance shared by every growable array in the
    heap. *)

val create : Config.cost -> t
(** An empty heap on freshly built storage. *)

val acquire : Config.cost -> t
(** Like {!create}, but takes the calling domain's spare storage (left
    by {!release}) when there is one. Its arrays may be longer than
    fresh ones; their contents read exactly like {!create}'s. *)

val release : t -> unit
(** Scrub the prefix [t] touched back to {!create}'s contents, make the
    arrays the domain's spare, and empty [t]: [top] 0, every array
    [[||]].
    Sound only if every access charged to [t] was at an address in
    [1 .. top - 1] or on line 0; {!Memory}'s and {!Vm}'s entry points
    ensure it.
    Idempotent. *)

val create_like : t -> t
(** A fresh, empty coherence domain sharing [t]'s cost scalars — the
    allocator models contention on its own metadata here, leaving the
    heap's line states untouched. *)

val reset_lines : t -> base:int -> size:int -> unit
(** Canonicalize the block's lines to cold (no owner, version bumped so
    all cached copies miss). Called on block reuse so post-alloc access
    costs cannot depend on the address the allocator chose. *)

val ensure_words : t -> int -> unit
(** Grow [words]/[block_id] to cover at least the given address count. *)

val ensure_block : t -> int -> unit
(** Grow the block-metadata arrays to cover block id [id]. *)

val line_of_addr : int -> int

val ensure_line : t -> int -> unit

val pid_slot : int -> int

val cost_read : t -> pid:int -> addr:int -> int
(** Tick price of a read, performing the line-state transition. *)

val cost_write : t -> pid:int -> addr:int -> int
(** Tick price of a store/CAS/FAA/FAS, taking the line exclusive. *)
