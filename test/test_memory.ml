(* The simulated heap: allocation, atomic operations, fault detection,
   address reuse, and accounting — all sequential (no scheduler). *)

open Simcore

let fresh ?(reuse = true) () = Memory.create { Config.small with reuse }

let test_alloc_read_write () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:4 in
  Alcotest.(check bool) "positive address" true (a > 0);
  for i = 0 to 3 do
    Alcotest.(check int) "zeroed" 0 (Memory.read m (a + i))
  done;
  Memory.write m (a + 2) 77;
  Alcotest.(check int) "read back" 77 (Memory.read m (a + 2))

let test_line_alignment () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  let b = Memory.alloc m ~tag:"t" ~size:1 in
  Alcotest.(check int) "a aligned" 0 (a mod 8);
  Alcotest.(check int) "b aligned" 0 (b mod 8);
  Alcotest.(check bool) "different lines" true (a / 8 <> b / 8)

let test_cas () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  Memory.write m a 5;
  Alcotest.(check bool) "cas mismatch fails" false
    (Memory.cas m a ~expected:4 ~desired:9);
  Alcotest.(check int) "value unchanged" 5 (Memory.read m a);
  Alcotest.(check bool) "cas match succeeds" true
    (Memory.cas m a ~expected:5 ~desired:9);
  Alcotest.(check int) "value updated" 9 (Memory.read m a)

let test_faa_fas () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  Alcotest.(check int) "faa returns old" 0 (Memory.faa m a 5);
  Alcotest.(check int) "faa negative" 5 (Memory.faa m a (-2));
  Alcotest.(check int) "value" 3 (Memory.read m a);
  Alcotest.(check int) "fas returns old" 3 (Memory.fas m a 100);
  Alcotest.(check int) "fas stored" 100 (Memory.read m a)

let test_cas2 () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.write m a 1;
  Memory.write m (a + 1) 2;
  Alcotest.(check bool) "cas2 wrong pair" false
    (Memory.cas2 m a ~e0:1 ~e1:3 ~d0:9 ~d1:9);
  Alcotest.(check bool) "cas2 right pair" true
    (Memory.cas2 m a ~e0:1 ~e1:2 ~d0:7 ~d1:8);
  Alcotest.(check (pair int int)) "both written" (7, 8)
    (Memory.read m a, Memory.read m (a + 1))

let expect_fault kind f =
  match f () with
  | _ -> Alcotest.fail "expected a fault"
  | exception Memory.Fault { kind = k; _ } ->
      Alcotest.(check string)
        "fault kind"
        (Memory.fault_kind_to_string kind)
        (Memory.fault_kind_to_string k)

let test_use_after_free () =
  let m = fresh ~reuse:false () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.free m a; (* lint: allow-free *)
  expect_fault Memory.Use_after_free (fun () -> Memory.read m a);
  expect_fault Memory.Use_after_free (fun () -> Memory.write m (a + 1) 3);
  expect_fault Memory.Use_after_free (fun () -> Memory.faa m a 1)

let test_double_free () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.free m a; (* lint: allow-free *)
  expect_fault Memory.Double_free (fun () ->
      Memory.free m a; (* lint: allow-free *)
      0)

let test_free_non_base () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  expect_fault Memory.Not_a_block (fun () ->
      Memory.free m (a + 1); (* lint: allow-free *)
      0)

let test_null_and_oob () =
  let m = fresh () in
  expect_fault Memory.Null_deref (fun () -> Memory.read m 0);
  expect_fault Memory.Out_of_bounds (fun () -> Memory.read m 1_000_000)

(* Wild addresses pay on the null line and then fault by name: no host
   exception from a negative line index, no line array grown to cover
   the address (let alone one of 2^37 entries). *)
let test_wild_addresses () =
  let m = fresh () in
  let lines () = Array.length (Memory.hot m).Memcore.lines in
  let n = lines () in
  expect_fault Memory.Null_deref (fun () -> Memory.read m (-9));
  expect_fault Memory.Null_deref (fun () -> Memory.write m (-9) 1);
  expect_fault Memory.Out_of_bounds (fun () ->
      Memory.cas m (1 lsl 40) ~expected:0 ~desired:1);
  expect_fault Memory.Out_of_bounds (fun () -> Memory.read m (1 lsl 20));
  Alcotest.(check int) "line array not grown" n (lines ())

(* Scalar and array fields of the hot record, for comparing heaps. *)
let int_arrays (h : Memcore.t) =
  Memcore.
    [
      ("words", h.words, 0);
      ("block_id", h.block_id, 0);
      ("b_base", h.b_base, 0);
      ("b_size", h.b_size, 0);
      ("b_live", h.b_live, 0);
      ("b_freed_by", h.b_freed_by, -1);
      ("b_next", h.b_next, 0);
      ("lines", h.lines, 0);
      ("vers", h.vers, 0);
      ("l1_line", h.l1_line, -1);
      ("l1_ver", h.l1_ver, -1);
    ]

(* A released heap's storage, taken by the domain's next heap, reads
   exactly like fresh storage over the fresh lengths and holds the
   defaults beyond them. The first heap grows every array past its
   initial length, reuses a block (bumping its line versions) and takes
   a faulting access. *)
let test_recycled_storage_canonical () =
  let m = fresh () in
  let blocks =
    List.init 600 (fun i -> Memory.alloc m ~tag:"big" ~size:(1 + (i mod 20)))
  in
  List.iteri
    (fun i a ->
      Memory.write m a (i + 1);
      ignore (Memory.faa m a 1))
    blocks;
  List.iteri
    (fun i a -> if i mod 3 = 0 then Memory.free m a (* lint: allow-free *))
    blocks;
  let b = Memory.alloc m ~tag:"again" ~size:1 in
  Memory.write m b 7;
  expect_fault Memory.Out_of_bounds (fun () -> Memory.read m (1 lsl 20));
  let grown = Array.length (Memory.hot m).Memcore.words in
  Memory.release m;
  let r = Memory.create Config.small in
  let f = Memcore.create Config.small.Config.cost in
  let h = Memory.hot r in
  Alcotest.(check bool) "storage reused" true
    (Array.length h.Memcore.words >= grown
    && grown > Array.length f.Memcore.words);
  Alcotest.(check int) "top" f.Memcore.top h.Memcore.top;
  Alcotest.(check int) "n_blocks" f.Memcore.n_blocks h.Memcore.n_blocks;
  List.iter2
    (fun (name, fresh_a, _) (_, a, default) ->
      let n = Array.length fresh_a in
      Alcotest.(check bool)
        (name ^ " at least fresh length") true (Array.length a >= n);
      Alcotest.(check (array int))
        (name ^ " = fresh") fresh_a (Array.sub a 0 n);
      Array.iteri
        (fun i v ->
          if i >= n && v <> default then
            Alcotest.failf "%s.(%d) = %d" name i v)
        a)
    (int_arrays f) (int_arrays h);
  Alcotest.(check bool) "b_tag canonical" true
    (Array.for_all (fun s -> s = "") h.Memcore.b_tag);
  Memory.release r

(* A released heap is empty: every access, allocation or free faults by
   name, whatever the address. *)
let test_released_heap_faults () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.write m a 5;
  Memory.release m;
  Memory.release m;
  let oob f = expect_fault Memory.Out_of_bounds f in
  oob (fun () -> Memory.read m a);
  oob (fun () -> Memory.write m a 1);
  oob (fun () -> Memory.cas m a ~expected:5 ~desired:6);
  oob (fun () -> Memory.faa m a 1);
  oob (fun () -> Memory.fas m a 1);
  oob (fun () -> Memory.cas2 m a ~e0:5 ~e1:0 ~d0:1 ~d1:1);
  oob (fun () -> Memory.peek m a);
  oob (fun () -> Memory.alloc m ~tag:"t" ~size:1);
  expect_fault Memory.Null_deref (fun () -> Memory.read m (-9));
  expect_fault Memory.Not_a_block (fun () ->
      Memory.free m a; (* lint: allow-free *)
      0);
  Alcotest.(check bool) "not live" false (Memory.block_is_live m a);
  Alcotest.(check (option string)) "no tag" None (Memory.block_tag m a)

let test_reuse () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.write m a 9;
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"y" ~size:3 in
  Alcotest.(check int) "same address reused" a b;
  Alcotest.(check int) "contents zeroed on reuse" 0 (Memory.read m b);
  Alcotest.(check (option string)) "new tag" (Some "y") (Memory.block_tag m b)

let test_no_reuse_mode () =
  let m = fresh ~reuse:false () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"x" ~size:3 in
  Alcotest.(check bool) "fresh address" true (a <> b)

let test_reuse_size_class () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"x" ~size:4 in
  Alcotest.(check bool) "different size not reused" true (a <> b)

let test_usage_accounting () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:2 in
  let b = Memory.alloc m ~tag:"x" ~size:2 in
  let _c = Memory.alloc m ~tag:"y" ~size:5 in
  Memory.free m a; (* lint: allow-free *)
  let u = Memory.usage m in
  Alcotest.(check int) "allocated" 3 u.Memory.allocated;
  Alcotest.(check int) "freed" 1 u.Memory.freed;
  Alcotest.(check int) "live" 2 u.Memory.live;
  Alcotest.(check int) "peak" 3 u.Memory.peak_live;
  Alcotest.(check int) "live words" 7 u.Memory.live_words;
  Alcotest.(check int) "live x" 1 (Memory.live_with_tag m "x");
  Alcotest.(check int) "live y" 1 (Memory.live_with_tag m "y");
  Alcotest.(check bool) "b live" true (Memory.block_is_live m b);
  Alcotest.(check bool) "a dead" false (Memory.block_is_live m a)

let test_iter_live () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:2 in
  let b = Memory.alloc m ~tag:"y" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let seen = ref [] in
  Memory.iter_live m (fun ~base ~size ~tag -> seen := (base, size, tag) :: !seen);
  Alcotest.(check (list (triple int int string))) "only live blocks"
    [ (b, 3, "y") ] !seen

let test_block_base () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:4 in
  Alcotest.(check int) "base of interior" a (Memory.block_base m (a + 3))

(* Model-based property: a random trace of allocs and frees keeps the
   accounting consistent with a reference model. *)
let prop_alloc_model =
  QCheck.Test.make ~count:100 ~name:"alloc/free accounting matches model"
    QCheck.(list (pair bool (int_range 1 6)))
    (fun ops ->
      let m = fresh () in
      let live = Hashtbl.create 16 in
      let allocated = ref 0 and freed = ref 0 in
      List.iter
        (fun (do_alloc, size) ->
          if do_alloc || Hashtbl.length live = 0 then begin
            let a = Memory.alloc m ~tag:"t" ~size in
            Hashtbl.replace live a size;
            incr allocated
          end
          else begin
            let a = Hashtbl.fold (fun k _ _ -> Some k) live None |> Option.get in
            Memory.free m a; (* lint: allow-free *)
            Hashtbl.remove live a;
            incr freed
          end)
        ops;
      let u = Memory.usage m in
      u.Memory.allocated = !allocated
      && u.Memory.freed = !freed
      && u.Memory.live = Hashtbl.length live
      && u.Memory.live_words = Hashtbl.fold (fun _ s acc -> acc + s) live 0)


(* Random atomic-op scripts against a model array (sequential). *)
let prop_atomic_ops_model =
  QCheck.Test.make ~count:200 ~name:"atomic ops match reference semantics"
    QCheck.(list (triple (int_range 0 3) (int_range 0 3) (int_range (-50) 50)))
    (fun script ->
      let m = fresh () in
      let base = Memory.alloc m ~tag:"t" ~size:4 in
      let model = Array.make 4 0 in
      List.for_all
        (fun (op, i, v) ->
          let a = base + i in
          match op with
          | 0 ->
              Memory.write m a v;
              model.(i) <- v;
              true
          | 1 -> Memory.read m a = model.(i)
          | 2 ->
              let old = Memory.faa m a v in
              let expect = model.(i) in
              model.(i) <- model.(i) + v;
              old = expect
          | _ ->
              let expected = if v mod 2 = 0 then model.(i) else v in
              let should = expected = model.(i) in
              let ok = Memory.cas m a ~expected ~desired:v in
              if should then model.(i) <- v;
              ok = should && Memory.peek m a = model.(i))
        script)

let suite =
  [
    Alcotest.test_case "alloc/read/write" `Quick test_alloc_read_write;
    Alcotest.test_case "line alignment" `Quick test_line_alignment;
    Alcotest.test_case "cas" `Quick test_cas;
    Alcotest.test_case "faa/fas" `Quick test_faa_fas;
    Alcotest.test_case "cas2" `Quick test_cas2;
    Alcotest.test_case "use-after-free" `Quick test_use_after_free;
    Alcotest.test_case "double-free" `Quick test_double_free;
    Alcotest.test_case "free non-base" `Quick test_free_non_base;
    Alcotest.test_case "null/oob" `Quick test_null_and_oob;
    Alcotest.test_case "wild addresses fault by name" `Quick
      test_wild_addresses;
    Alcotest.test_case "recycled storage canonical" `Quick
      test_recycled_storage_canonical;
    Alcotest.test_case "released heap faults" `Quick test_released_heap_faults;
    Alcotest.test_case "address reuse" `Quick test_reuse;
    Alcotest.test_case "no-reuse mode" `Quick test_no_reuse_mode;
    Alcotest.test_case "size classes" `Quick test_reuse_size_class;
    Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
    Alcotest.test_case "iter_live" `Quick test_iter_live;
    Alcotest.test_case "block_base" `Quick test_block_base;
    QCheck_alcotest.to_alcotest prop_alloc_model;
    QCheck_alcotest.to_alcotest prop_atomic_ops_model;
  ]
