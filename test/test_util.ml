(* Unit and property tests for clusteer_util. *)

open Clusteer_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr equal
  done;
  check_bool "different seeds diverge" true (!equal < 4)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 3 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli r 0.0);
    check_bool "p=1 always" true (Rng.bernoulli r 1.0)
  done

let test_rng_bernoulli_rate () =
  let r = Rng.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "close to 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_geometric_mean () =
  let r = Rng.create 9 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Rng.geometric r 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of geometric(0.5) counting failures = 1.0 *)
  check_bool "geometric mean near 1" true (mean > 0.9 && mean < 1.1)

let test_rng_pick () =
  let r = Rng.create 13 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Rng.pick r a) a)
  done

let test_rng_pick_weighted () =
  let r = Rng.create 17 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.pick_weighted r [| ("a", 1.0); ("b", 0.0); ("c", 3.0) |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  check_int "zero weight never drawn" 0
    (Option.value ~default:0 (Hashtbl.find_opt counts "b"));
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let c = Option.value ~default:0 (Hashtbl.find_opt counts "c") in
  check_bool "c ~ 3x a" true (c > 2 * a)

let test_rng_shuffle_permutation () =
  let r = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 31 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 parent = Rng.int64 child then incr equal
  done;
  check_bool "split streams diverge" true (!equal < 4)

let test_rng_gaussian_moments () =
  let r = Rng.create 37 in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.gaussian r ~mean:5.0 ~stddev:2.0)
  done;
  check_bool "mean near 5" true (abs_float (Stats.Online.mean acc -. 5.0) < 0.1);
  check_bool "stddev near 2" true (abs_float (Stats.Online.stddev acc -. 2.0) < 0.1)

(* ---- Stats --------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check_int "count" 4 s.Stats.count;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_bool "stddev" true (abs_float (s.Stats.stddev -. 1.2909944487) < 1e-6)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_weighted_mean () =
  check_float "weighted" 3.0
    (Stats.weighted_mean [| (1.0, 1.0); (4.0, 2.0) |])

let test_stats_weighted_mean_zero_weight () =
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Stats.weighted_mean: zero total weight") (fun () ->
      ignore (Stats.weighted_mean [| (1.0, 0.0) |]))

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Stats.percentile xs 50.0)

let test_stats_ratio_percent () =
  check_float "ratio" 25.0 (Stats.ratio_percent 100.0 125.0);
  check_float "negative" (-10.0) (Stats.ratio_percent 100.0 90.0)

let test_stats_online_matches_batch () =
  let xs = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let acc = Stats.Online.create () in
  Array.iter (Stats.Online.add acc) xs;
  let s = Stats.summarize xs in
  check_bool "mean matches" true
    (abs_float (Stats.Online.mean acc -. s.Stats.mean) < 1e-9);
  check_bool "stddev matches" true
    (abs_float (Stats.Online.stddev acc -. s.Stats.stddev) < 1e-9)

let test_stats_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 150.0))

let test_rng_geometric_certain () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    check_int "p=1 never fails" 0 (Rng.geometric r 1.0)
  done

(* ---- Pqueue -------------------------------------------------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.add q p v) [ (3, "c"); (1, "a"); (2, "b") ];
  Alcotest.(check (option (pair int string))) "min" (Some (1, "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair int string))) "next" (Some (2, "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair int string))) "last" (Some (3, "c")) (Pqueue.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.add q 5 v) [ "first"; "second"; "third" ];
  Alcotest.(check (option (pair int string))) "fifo 1" (Some (5, "first")) (Pqueue.pop q);
  Alcotest.(check (option (pair int string))) "fifo 2" (Some (5, "second")) (Pqueue.pop q)

let test_pqueue_peek_noop () =
  let q = Pqueue.create () in
  Pqueue.add q 1 "x";
  ignore (Pqueue.peek q);
  check_int "peek preserves" 1 (Pqueue.length q)

let test_pqueue_pop_while () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.add q p p) [ 5; 1; 3; 8; 2 ];
  let popped = Pqueue.pop_while q (fun p -> p <= 3) in
  Alcotest.(check (list (pair int int))) "popped prefix"
    [ (1, 1); (2, 2); (3, 3) ] popped;
  check_int "remaining" 2 (Pqueue.length q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q 1 ();
  Pqueue.clear q;
  check_bool "empty" true (Pqueue.is_empty q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q p p) prios;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare prios)

(* Minor-heap words [f] allocates; [f] is built before the first
   reading, so only its body counts. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_pqueue_steady_state_no_alloc () =
  let vals = Array.init 64 string_of_int in
  let q = Pqueue.create () in
  Array.iteri (fun i v -> Pqueue.add q (i * 7 mod 13) v) vals;
  (* Reach the steady capacity: the loop below holds 65 at its peak. *)
  Pqueue.add q 0 vals.(0);
  ignore (Pqueue.take q : string);
  let words =
    minor_words_during (fun () ->
        for i = 0 to 9_999 do
          Pqueue.add q (i mod 17) vals.(i land 63);
          if Pqueue.top_prio q >= 0 then ignore (Pqueue.take q : string)
        done)
  in
  Alcotest.(check (float 0.0)) "add + take: 0 minor words" 0.0 words;
  check_int "size kept" 64 (Pqueue.length q)

(* ---- Readyq -------------------------------------------------------- *)

(* Entries oldest-first, read by a select that starts nothing; the
   tests store each key as its own value. *)
let readyq_keys q =
  let keys = ref [] in
  let started =
    Readyq.select q ~width:max_int
      (fun () k ->
        keys := k :: !keys;
        false)
      ()
  in
  assert (started = 0);
  List.rev !keys

let test_readyq_age_order () =
  let q = Readyq.create ~capacity:5 in
  List.iter (fun k -> Readyq.insert q k k) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 3; 5; 7; 9 ] (readyq_keys q);
  Alcotest.check_raises "full" (Invalid_argument "Readyq.insert: full")
    (fun () -> Readyq.insert q 11 11);
  let started = ref [] in
  let n =
    Readyq.select q ~width:2
      (fun () k ->
        let ok = k <> 3 in
        if ok then started := k :: !started;
        ok)
      ()
  in
  check_int "width reached" 2 n;
  Alcotest.(check (list int)) "started oldest-first" [ 1; 5 ] (List.rev !started);
  Alcotest.(check (list int)) "blocked keeps its rank" [ 3; 7; 9 ] (readyq_keys q);
  Readyq.clear q;
  check_bool "cleared" true (Readyq.is_empty q)

(* The select a heap-backed issue queue performs: pop in priority
   order, start what can start, set the rest aside, stop at [width]
   starts, push the set-aside entries back. *)
let heap_select q ~width blocked =
  let started = ref [] and aside = ref [] and n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < width do
    match Pqueue.pop q with
    | None -> continue_ := false
    | Some (k, v) ->
        if blocked v then aside := (k, v) :: !aside
        else begin
          started := v :: !started;
          incr n
        end
  done;
  List.iter (fun (k, v) -> Pqueue.add q k v) !aside;
  List.rev !started

let prop_readyq_matches_heap_select =
  QCheck.Test.make ~name:"readyq select = heap pop/try/re-push select"
    ~count:300
    QCheck.(
      pair small_nat
        (list_of_size Gen.(1 -- 12)
           (pair (list_of_size Gen.(0 -- 10) (int_bound 200)) (int_range 0 4))))
    (fun (salt, rounds) ->
      (* At most 12 rounds of 10 arrivals are ever ready at once. *)
      let heap = Pqueue.create () and ready = Readyq.create ~capacity:120 in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun (arrivals, width) ->
          (* Unique keys, as instruction sequence numbers are; arrivals
             come in any age order, like wakeups. *)
          List.iter
            (fun k ->
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                Pqueue.add heap k k;
                Readyq.insert ready k k
              end)
            arrivals;
          let blocked k = Hashtbl.hash (salt, Hashtbl.length seen, k) land 1 = 0 in
          let expect = heap_select heap ~width blocked in
          let got = ref [] in
          let n =
            Readyq.select ready ~width
              (fun () k ->
                let ok = not (blocked k) in
                if ok then got := k :: !got;
                ok)
              ()
          in
          let rest =
            List.map snd (Pqueue.pop_while heap (fun _ -> true))
          in
          List.iter (fun k -> Pqueue.add heap k k) rest;
          expect = List.rev !got
          && n = List.length expect
          && rest = readyq_keys ready)
        rounds)

let test_readyq_steady_state_no_alloc () =
  let vals = Array.init 64 string_of_int in
  let q = Readyq.create ~capacity:64 in
  let words =
    minor_words_during (fun () ->
        for i = 0 to 9_999 do
          Readyq.insert q ((i * 37) land 1023) vals.(i land 63);
          if Readyq.length q >= 48 then
            ignore (Readyq.select q ~width:2 (fun () _ -> true) ())
        done)
  in
  Alcotest.(check (float 0.0)) "insert + select: 0 minor words" 0.0 words

(* ---- Ring ---------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  check_bool "push1" true (Ring.push r 1);
  check_bool "push2" true (Ring.push r 2);
  check_bool "push3" true (Ring.push r 3);
  check_bool "full rejects" false (Ring.push r 4);
  Alcotest.(check (option int)) "pop order" (Some 1) (Ring.pop r);
  check_bool "push after pop" true (Ring.push r 4);
  Alcotest.(check (list int)) "contents" [ 2; 3; 4 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:2 in
  for i = 1 to 10 do
    check_bool "push" true (Ring.push r i);
    Alcotest.(check (option int)) "pop" (Some i) (Ring.pop r)
  done

let test_ring_get () =
  let r = Ring.create ~capacity:4 in
  List.iter (fun v -> ignore (Ring.push r v)) [ 10; 20; 30 ];
  check_int "get 0" 10 (Ring.get r 0);
  check_int "get 2" 30 (Ring.get r 2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Ring.get: index out of range") (fun () ->
      ignore (Ring.get r 3))

let test_ring_free_slots () =
  let r = Ring.create ~capacity:5 in
  ignore (Ring.push r 1);
  ignore (Ring.push r 2);
  check_int "free" 3 (Ring.free_slots r);
  Ring.clear r;
  check_int "after clear" 5 (Ring.free_slots r)

let prop_ring_model =
  QCheck.Test.make ~name:"ring behaves like a bounded FIFO" ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some v = push v, None = pop; compare against a list model. *)
      let r = Ring.create ~capacity:4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let accepted = Ring.push r v in
              let should = List.length !model < 4 in
              if should then model := !model @ [ v ];
              accepted = should
          | None -> (
              match (Ring.pop r, !model) with
              | None, [] -> true
              | Some x, y :: rest ->
                  model := rest;
                  x = y
              | _ -> false))
        ops)

(* ---- Bitset -------------------------------------------------------- *)

let test_bitset_basics () =
  let s = Bitset.of_list [ 0; 3; 5 ] in
  check_bool "mem 3" true (Bitset.mem s 3);
  check_bool "mem 1" false (Bitset.mem s 1);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 3; 5 ] (Bitset.to_list s)

let test_bitset_ops () =
  let a = Bitset.of_list [ 0; 1 ] and b = Bitset.of_list [ 1; 2 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ]
    (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "remove" [ 0 ]
    (Bitset.to_list (Bitset.remove a 1))

let test_bitset_full () =
  check_int "full 4" 4 (Bitset.cardinal (Bitset.full 4));
  check_bool "full empty" true (Bitset.is_empty (Bitset.full 0))

let test_bitset_choose () =
  Alcotest.(check (option int)) "choose min" (Some 2)
    (Bitset.choose (Bitset.of_list [ 5; 2; 9 ]));
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose Bitset.empty)

let prop_bitset_set_semantics =
  QCheck.Test.make ~name:"bitset matches sorted-dedup list" ~count:300
    QCheck.(list (int_bound 30))
    (fun l ->
      let s = Bitset.of_list l in
      Bitset.to_list s = List.sort_uniq compare l)

(* ---- Vec ------------------------------------------------------------ *)

let test_vec_growth () =
  let v = Vec.create ~initial:2 ~default:(-1) () in
  Vec.set v 100 7;
  check_int "set far" 7 (Vec.get v 100);
  check_int "default below" (-1) (Vec.get v 50);
  check_int "length" 101 (Vec.length v)

let test_vec_push () =
  let v = Vec.create ~default:0 () in
  check_int "push idx 0" 0 (Vec.push v 10);
  check_int "push idx 1" 1 (Vec.push v 20);
  check_int "value" 20 (Vec.get v 1)

let test_vec_get_beyond () =
  let v = Vec.create ~default:9 () in
  check_int "default beyond data" 9 (Vec.get v 1_000_000)

let test_vec_clear () =
  let v = Vec.create ~default:0 () in
  ignore (Vec.push v 5);
  Vec.clear v;
  check_int "length reset" 0 (Vec.length v);
  check_int "value reset" 0 (Vec.get v 0)

(* ---- Lru ------------------------------------------------------------ *)

let check_keys = Alcotest.(check (list string))

let test_lru_eviction_order () =
  let evicted = ref [] in
  let t =
    Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~budget:3 ()
  in
  Lru.add t "a" ~cost:1 "A";
  Lru.add t "b" ~cost:1 "B";
  Lru.add t "c" ~cost:1 "C";
  check_keys "mru order" [ "c"; "b"; "a" ] (Lru.keys t);
  (* One unit over budget: the least-recently-used entry goes. *)
  Lru.add t "d" ~cost:1 "D";
  check_keys "a evicted first" [ "a" ] (List.rev !evicted);
  check_keys "survivors" [ "d"; "c"; "b" ] (Lru.keys t);
  (* A large insertion evicts from the LRU end until it fits. *)
  Lru.add t "e" ~cost:3 "E";
  check_keys "b then c then d" [ "a"; "b"; "c"; "d" ] (List.rev !evicted);
  check_keys "only e" [ "e" ] (Lru.keys t)

let test_lru_hit_promotion () =
  let t = Lru.create ~budget:3 () in
  Lru.add t "a" ~cost:1 "A";
  Lru.add t "b" ~cost:1 "B";
  Lru.add t "c" ~cost:1 "C";
  (* Touch "a": it must now survive the next eviction instead of "b". *)
  Alcotest.(check (option string)) "find hits" (Some "A") (Lru.find t "a");
  Lru.add t "d" ~cost:1 "D";
  check_keys "b evicted, a kept" [ "d"; "a"; "c" ] (Lru.keys t);
  (* peek must NOT promote. *)
  Alcotest.(check (option string)) "peek hits" (Some "C") (Lru.peek t "c");
  Lru.add t "e" ~cost:1 "E";
  check_keys "c evicted despite peek" [ "e"; "d"; "a" ] (Lru.keys t)

let test_lru_byte_accounting () =
  let t = Lru.create ~budget:100 () in
  Lru.add t "a" ~cost:40 "A";
  Lru.add t "b" ~cost:40 "B";
  check_int "cost sums" 80 (Lru.cost t);
  Lru.add t "c" ~cost:40 "C";
  (* 120 > 100: "a" must go, leaving 80. *)
  check_int "cost after eviction" 80 (Lru.cost t);
  check_int "two entries" 2 (Lru.length t);
  Lru.remove t "b";
  check_int "cost after remove" 40 (Lru.cost t);
  check_int "budget preserved" 100 (Lru.budget t)

let test_lru_replace_recosts () =
  let t = Lru.create ~budget:10 () in
  Lru.add t "a" ~cost:4 "A";
  Lru.add t "b" ~cost:4 "B";
  Lru.add t "a" ~cost:6 "A2";
  check_int "re-costed" 10 (Lru.cost t);
  Alcotest.(check (option string)) "new value" (Some "A2") (Lru.peek t "a");
  check_keys "replacement promotes" [ "a"; "b" ] (Lru.keys t)

let test_lru_oversized_entry () =
  let evicted = ref [] in
  let t =
    Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~budget:5 ()
  in
  (* An entry bigger than the whole budget is admitted and immediately
     evicted (spill hook still observes it). *)
  Lru.add t "big" ~cost:9 "B";
  check_int "nothing resident" 0 (Lru.length t);
  check_int "no residual cost" 0 (Lru.cost t);
  check_keys "evict hook saw it" [ "big" ] !evicted

let test_lru_remove () =
  let evicted = ref 0 in
  let t = Lru.create ~on_evict:(fun _ _ -> incr evicted) ~budget:10 () in
  Lru.add t "a" ~cost:1 "A";
  Lru.remove t "a";
  Lru.remove t "a";
  check_bool "gone" false (Lru.mem t "a");
  check_int "remove is not eviction" 0 !evicted

let test_lru_rejects_negatives () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Lru.create: negative budget") (fun () ->
      ignore (Lru.create ~budget:(-1) () : unit Lru.t));
  let t = Lru.create ~budget:1 () in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Lru.add: negative cost") (fun () ->
      Lru.add t "a" ~cost:(-1) ())

(* ---- Plot ------------------------------------------------------------ *)

let test_plot_empty () =
  Alcotest.(check string) "empty" "" (Plot.scatter [])

let test_plot_contains_points_and_axes () =
  let out = Plot.scatter ~width:20 ~height:10 [ (1.0, 2.0); (-3.0, -1.0) ] in
  check_bool "has stars" true (String.contains out '*');
  check_bool "has vertical axis" true (String.contains out '|');
  check_bool "has horizontal axis" true (String.contains out '-');
  let lines = String.split_on_char '\n' out in
  (* header + 10 rows + trailing empty *)
  check_int "height respected" 12 (List.length lines)

let test_plot_overlap_marker () =
  let out = Plot.scatter ~width:10 ~height:5 [ (5.0, 5.0); (5.0, 5.0) ] in
  check_bool "coincident points marked" true (String.contains out '@')

let test_plot_labels () =
  let out =
    Plot.scatter ~x_label:"speedup" ~y_label:"copies" [ (1.0, 1.0) ]
  in
  check_bool "labels present" true
    (String.length out > 0
    && (let header = List.hd (String.split_on_char '\n' out) in
        let contains s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        contains header "speedup" && contains header "copies"))

(* ---- Parallel ---------------------------------------------------------- *)

(* A stateless map on the one worker loop: every test below runs
   under both claim rules. *)
let pmap ?domains ?strategy f xs =
  fst (Parallel.map_sharded ?domains ?strategy ~init:ignore ~f:(fun () -> f) xs)

let strategies = [ ("static", Parallel.Static); ("steal", Parallel.Steal) ]

let test_parallel_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun (name, strategy) ->
      Alcotest.(check (list int)) (name ^ " order-deterministic")
        (List.map f xs)
        (pmap ~domains:4 ~strategy f xs))
    strategies

let test_parallel_single_domain () =
  Alcotest.(check (list int)) "degrades to List.map" [ 2; 4 ]
    (pmap ~domains:1 (fun x -> 2 * x) [ 1; 2 ])

let test_parallel_empty_and_singleton () =
  List.iter
    (fun (name, strategy) ->
      Alcotest.(check (list int)) (name ^ " empty") []
        (pmap ~domains:4 ~strategy Fun.id []);
      Alcotest.(check (list int)) (name ^ " singleton") [ 7 ]
        (pmap ~domains:4 ~strategy Fun.id [ 7 ]))
    strategies

let test_parallel_propagates_exception () =
  Alcotest.check_raises "worker failure" (Failure "boom") (fun () ->
      ignore
        (pmap ~domains:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 Fun.id)))

let test_parallel_default_domains () =
  check_bool "at least one" true (Parallel.default_domains () >= 1);
  check_bool "capped" true
    (Parallel.default_domains () <= Parallel.default_domain_cap);
  check_int "documented cap" 8 Parallel.default_domain_cap

exception Worker_died of int

(* Not inlined, so the frame shows up in the worker's backtrace. *)
let[@inline never] die x = raise (Worker_died x)

let test_parallel_exception_keeps_backtrace () =
  (* The caller must see the worker's payload and the worker's
     backtrace: its first frame is the raise in [die], not the re-raise
     inside Parallel. Element 17 of 32 falls in a helper domain's
     slice under Static. *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  List.iter
    (fun (name, strategy) ->
      match
        pmap ~domains:4 ~strategy
          (fun x -> if x = 17 then die x else x)
          (List.init 32 Fun.id)
      with
      | _ -> Alcotest.failf "%s: expected the worker failure to re-raise" name
      | exception Worker_died x ->
          let bt = Printexc.get_raw_backtrace () in
          check_int (name ^ " payload") 17 x;
          let first =
            Option.bind (Printexc.backtrace_slots bt) (fun slots ->
                if Array.length slots = 0 then None
                else Printexc.Slot.location slots.(0))
          in
          Alcotest.(check (option string))
            (name ^ " raised in the worker")
            (Some "test/test_util.ml")
            (Option.map (fun l -> l.Printexc.filename) first))
    strategies

let test_parallel_steal_matches_sequential () =
  (* Uneven per-element cost, so the cursor hands elements out of
     order across domains; results must still come back in input
     order, every element exactly once. *)
  let xs = List.init 53 Fun.id in
  let f x =
    if x mod 7 = 0 then Unix.sleepf 0.001;
    (x * 7) mod 11
  in
  List.iter
    (fun domains ->
      let results, visits =
        Parallel.map_sharded ~domains ~strategy:Parallel.Steal
          ~init:(fun _ -> ref 0)
          ~f:(fun n x ->
            incr n;
            f x)
          xs
      in
      Alcotest.(check (list int))
        (Printf.sprintf "steal on %d domains" domains)
        (List.map f xs) results;
      check_int
        (Printf.sprintf "each element once on %d domains" domains)
        53
        (List.fold_left (fun acc n -> acc + !n) 0 visits))
    [ 1; 2; 4; 53; 100 ]

let test_parallel_steal_propagates_exception () =
  Alcotest.check_raises "steal worker failure" (Failure "steal boom")
    (fun () ->
      ignore
        (pmap ~domains:3 ~strategy:Parallel.Steal
           (fun x -> if x = 9 then failwith "steal boom" else x)
           (List.init 20 Fun.id)))

let test_parallel_failure_stops_per_element () =
  (* Element 0 poisons the run at once. Under Static the other worker
     owns the 100-element upper slice and must notice before each of
     its elements rather than draining the slice; under Steal it must
     stop claiming. Surviving elements sleep, so a slice-granular check
     would evaluate ~100 elements; the per-element check stops almost
     immediately. *)
  let n = 200 in
  List.iter
    (fun (name, strategy) ->
      let evaluated = Atomic.make 0 in
      (try
         ignore
           (pmap ~domains:2 ~strategy
              (fun x ->
                Atomic.incr evaluated;
                if x = 0 then failwith "poison" else Unix.sleepf 0.002)
              (List.init n Fun.id));
         Alcotest.fail "expected the poisoned run to raise"
       with Failure msg when msg = "poison" -> ());
      check_bool
        (Printf.sprintf "%s stopped early (evaluated %d of %d)" name
           (Atomic.get evaluated) n)
        true
        (Atomic.get evaluated < 50))
    strategies

let test_parallel_map_sharded_basics () =
  let xs = List.init 40 Fun.id in
  let f state x =
    incr state;
    x * 2
  in
  List.iter
    (fun (name, strategy) ->
      let results, states =
        Parallel.map_sharded ~domains:4 ~strategy ~init:(fun _ -> ref 0) ~f xs
      in
      Alcotest.(check (list int)) (name ^ " results in input order")
        (List.map (fun x -> x * 2) xs)
        results;
      check_int (name ^ " one state per worker") 4 (List.length states);
      check_int (name ^ " every element visited exactly once") 40
        (List.fold_left (fun acc r -> acc + !r) 0 states))
    strategies

let test_parallel_map_sharded_shard_order () =
  (* Worker [w] owns the contiguous slice [w*n/d, (w+1)*n/d); the
     returned states must come back in shard order so callers can merge
     them deterministically. *)
  let xs = List.init 8 Fun.id in
  let f seen x =
    seen := x :: !seen;
    x
  in
  let _, states =
    Parallel.map_sharded ~domains:4 ~init:(fun _ -> ref []) ~f xs
  in
  Alcotest.(check (list int)) "states in shard (= input) order"
    xs
    (List.concat_map (fun seen -> List.rev !seen) states)

let test_parallel_map_sharded_single_worker () =
  let results, states =
    Parallel.map_sharded ~domains:1 ~init:(fun w -> w) ~f:(fun w x -> x + w)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "sequential path" [ 1; 2; 3 ] results;
  Alcotest.(check (list int)) "single shard 0" [ 0 ] states

let test_parallel_map_sharded_empty () =
  let results, states =
    Parallel.map_sharded ~domains:4 ~init:(fun _ -> ()) ~f:(fun () x -> x) []
  in
  Alcotest.(check (list int)) "no results" [] results;
  check_int "no states" 0 (List.length states)

let test_parallel_map_sharded_propagates_exception () =
  List.iter
    (fun (name, strategy) ->
      Alcotest.check_raises (name ^ " failure in init") (Failure "init boom")
        (fun () ->
          ignore
            (Parallel.map_sharded ~domains:3 ~strategy
               ~init:(fun w -> if w = 2 then failwith "init boom")
               ~f:(fun () x -> x)
               (List.init 20 Fun.id)));
      Alcotest.check_raises (name ^ " failure in f") (Failure "shard boom")
        (fun () ->
          ignore
            (Parallel.map_sharded ~domains:3 ~strategy
               ~init:(fun _ -> ())
               ~f:(fun () x -> if x = 11 then failwith "shard boom" else x)
               (List.init 20 Fun.id))))
    strategies

(* ---- Table / Csv ---------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[| "name"; "value" |]
      [ [| "a"; "1" |]; [| "longer"; "22" |] ]
  in
  let lines = String.split_on_char '\n' out in
  check_int "line count" 5 (List.length lines) (* header, rule, 2 rows, trailing *)

let test_table_arity_check () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.render: row 0 has wrong arity") (fun () ->
      ignore (Table.render ~header:[| "a"; "b" |] [ [| "x" |] ]))

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "percent" "2.6%" (Table.fmt_percent ~decimals:1 2.62)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_write_read () =
  let path = Filename.temp_file "clusteer" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ] [ [ "1"; "a,b" ]; [ "2"; "c" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "roundtrip"
    [ "x,y"; "1,\"a,b\""; "2,c" ]
    (List.rev !lines)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "pick_weighted" `Quick test_rng_pick_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "geometric certain" `Quick test_rng_geometric_certain;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
          Alcotest.test_case "weighted zero" `Quick test_stats_weighted_mean_zero_weight;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "ratio percent" `Quick test_stats_ratio_percent;
          Alcotest.test_case "online matches batch" `Quick test_stats_online_matches_batch;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_pqueue_peek_noop;
          Alcotest.test_case "pop_while" `Quick test_pqueue_pop_while;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          qc prop_pqueue_sorted;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_pqueue_steady_state_no_alloc;
        ] );
      ( "readyq",
        [
          Alcotest.test_case "age order" `Quick test_readyq_age_order;
          qc prop_readyq_matches_heap_select;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_readyq_steady_state_no_alloc;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "get" `Quick test_ring_get;
          Alcotest.test_case "free slots" `Quick test_ring_free_slots;
          qc prop_ring_model;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
          qc prop_bitset_set_semantics;
        ] );
      ( "vec",
        [
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "push" `Quick test_vec_push;
          Alcotest.test_case "get beyond" `Quick test_vec_get_beyond;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "empty and singleton" `Quick test_parallel_empty_and_singleton;
          Alcotest.test_case "propagates exception" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "default domains" `Quick test_parallel_default_domains;
          Alcotest.test_case "exception keeps backtrace" `Quick
            test_parallel_exception_keeps_backtrace;
          Alcotest.test_case "steal matches sequential" `Quick
            test_parallel_steal_matches_sequential;
          Alcotest.test_case "steal propagates exception" `Quick
            test_parallel_steal_propagates_exception;
          Alcotest.test_case "failure stops per element" `Quick
            test_parallel_failure_stops_per_element;
          Alcotest.test_case "map_sharded basics" `Quick
            test_parallel_map_sharded_basics;
          Alcotest.test_case "map_sharded shard order" `Quick
            test_parallel_map_sharded_shard_order;
          Alcotest.test_case "map_sharded single worker" `Quick
            test_parallel_map_sharded_single_worker;
          Alcotest.test_case "map_sharded empty" `Quick
            test_parallel_map_sharded_empty;
          Alcotest.test_case "map_sharded propagates exception" `Quick
            test_parallel_map_sharded_propagates_exception;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "hit promotion" `Quick test_lru_hit_promotion;
          Alcotest.test_case "byte accounting" `Quick test_lru_byte_accounting;
          Alcotest.test_case "replace re-costs" `Quick test_lru_replace_recosts;
          Alcotest.test_case "oversized entry" `Quick test_lru_oversized_entry;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "rejects negatives" `Quick test_lru_rejects_negatives;
        ] );
      ( "plot",
        [
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "points and axes" `Quick test_plot_contains_points_and_axes;
          Alcotest.test_case "overlap marker" `Quick test_plot_overlap_marker;
          Alcotest.test_case "labels" `Quick test_plot_labels;
        ] );
      ( "table-csv",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
          Alcotest.test_case "csv escape" `Quick test_csv_escape;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_write_read;
        ] );
    ]
