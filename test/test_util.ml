(* Unit and property tests for the hp_util substrate. *)

module U = Hp_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Dynarray *)

let test_dynarray_basic () =
  let d = U.Dynarray.create ~dummy:0 () in
  checkb "empty" true (U.Dynarray.is_empty d);
  for i = 0 to 99 do
    U.Dynarray.push d i
  done;
  check "length" 100 (U.Dynarray.length d);
  check "get 57" 57 (U.Dynarray.get d 57);
  U.Dynarray.set d 57 (-1);
  check "set" (-1) (U.Dynarray.get d 57);
  check "pop" 99 (U.Dynarray.pop d);
  check "length after pop" 99 (U.Dynarray.length d);
  U.Dynarray.clear d;
  check "cleared" 0 (U.Dynarray.length d)

let test_dynarray_bounds () =
  let d = U.Dynarray.create ~dummy:0 () in
  U.Dynarray.push d 1;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Dynarray: index 1 out of bounds [0,1)") (fun () ->
      ignore (U.Dynarray.get d 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Dynarray.pop: empty")
    (fun () ->
      ignore (U.Dynarray.pop d);
      ignore (U.Dynarray.pop d))

let test_dynarray_conversions () =
  let d = U.Dynarray.of_array ~dummy:0 [| 3; 1; 2 |] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 2 ] (U.Dynarray.to_list d);
  U.Dynarray.sort compare d;
  Alcotest.(check (array int)) "sort" [| 1; 2; 3 |] (U.Dynarray.to_array d);
  checkb "exists" true (U.Dynarray.exists (fun x -> x = 2) d);
  checkb "not exists" false (U.Dynarray.exists (fun x -> x = 9) d);
  check "fold" 6 (U.Dynarray.fold_left ( + ) 0 d)

let prop_dynarray_push_pop =
  QCheck.Test.make ~name:"dynarray: push then pop returns inputs reversed" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let d = U.Dynarray.create ~dummy:0 () in
      List.iter (U.Dynarray.push d) xs;
      let popped = List.init (List.length xs) (fun _ -> U.Dynarray.pop d) in
      popped = List.rev xs && U.Dynarray.is_empty d)

(* Bucket_queue *)

let test_bucket_queue_basic () =
  let q = U.Bucket_queue.create ~n:5 ~max_key:10 in
  U.Bucket_queue.insert q 0 3;
  U.Bucket_queue.insert q 1 1;
  U.Bucket_queue.insert q 2 7;
  check "size" 3 (U.Bucket_queue.size q);
  (match U.Bucket_queue.pop_min q with
  | Some (1, 1) -> ()
  | Some (v, k) -> Alcotest.failf "expected (1,1), got (%d,%d)" v k
  | None -> Alcotest.fail "expected (1,1), got None");
  U.Bucket_queue.change_key q 2 0;
  (match U.Bucket_queue.pop_min q with
  | Some (2, 0) -> ()
  | Some _ | None -> Alcotest.fail "expected element 2 at key 0");
  check "remaining" 1 (U.Bucket_queue.size q)

let test_bucket_queue_decrease () =
  let q = U.Bucket_queue.create ~n:3 ~max_key:5 in
  U.Bucket_queue.insert q 0 5;
  U.Bucket_queue.decrease q 0;
  check "decreased key" 4 (U.Bucket_queue.key q 0);
  U.Bucket_queue.remove q 0;
  checkb "removed" false (U.Bucket_queue.mem q 0);
  U.Bucket_queue.remove q 0 (* idempotent *)

let test_bucket_queue_errors () =
  let q = U.Bucket_queue.create ~n:2 ~max_key:3 in
  U.Bucket_queue.insert q 0 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Bucket_queue.insert: element already present") (fun () ->
      U.Bucket_queue.insert q 0 2);
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Bucket_queue.insert: key out of range") (fun () ->
      U.Bucket_queue.insert q 1 4)

let prop_bucket_queue_model =
  (* Compare against a naive model: map of element -> key. *)
  QCheck.Test.make ~name:"bucket_queue: pop_min matches naive model" ~count:300
    QCheck.(list (pair (int_bound 19) (int_bound 9)))
    (fun ops ->
      let q = U.Bucket_queue.create ~n:20 ~max_key:9 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (v, k) ->
          if U.Bucket_queue.mem q v then U.Bucket_queue.change_key q v k
          else U.Bucket_queue.insert q v k;
          Hashtbl.replace model v k)
        ops;
      let ok = ref true in
      let rec drain () =
        match U.Bucket_queue.pop_min q with
        | None -> if Hashtbl.length model <> 0 then ok := false
        | Some (v, k) ->
          (match Hashtbl.find_opt model v with
          | Some mk when mk = k ->
            let min_model = Hashtbl.fold (fun _ k acc -> min k acc) model max_int in
            if k <> min_model then ok := false;
            Hashtbl.remove model v
          | Some _ | None -> ok := false);
          drain ()
      in
      drain ();
      !ok)

(* Disjoint_set *)

let test_disjoint_set () =
  let ds = U.Disjoint_set.create 6 in
  check "initial count" 6 (U.Disjoint_set.count ds);
  checkb "union 0 1" true (U.Disjoint_set.union ds 0 1);
  checkb "union 1 2" true (U.Disjoint_set.union ds 1 2);
  checkb "redundant union" false (U.Disjoint_set.union ds 0 2);
  checkb "same" true (U.Disjoint_set.same ds 0 2);
  checkb "not same" false (U.Disjoint_set.same ds 0 3);
  check "count" 4 (U.Disjoint_set.count ds);
  check "size_of" 3 (U.Disjoint_set.size_of ds 1);
  let groups = U.Disjoint_set.groups ds in
  check "group count" 4 (Array.length groups);
  let total = Array.fold_left (fun acc g -> acc + List.length g) 0 groups in
  check "groups partition" 6 total

(* Prng *)

let test_prng_determinism () =
  let a = U.Prng.create 42 and b = U.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (U.Prng.next_int64 a) (U.Prng.next_int64 b)
  done

let test_prng_bounds () =
  let rng = U.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = U.Prng.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13);
    let f = U.Prng.float rng in
    checkb "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_prng_sample () =
  let rng = U.Prng.create 3 in
  let s = U.Prng.sample_without_replacement rng 5 100 in
  check "sample size" 5 (Array.length s);
  check "distinct" 5 (Array.length (U.Sorted.of_array s));
  let full = U.Prng.sample_without_replacement rng 100 100 in
  check "full sample distinct" 100 (Array.length (U.Sorted.of_array full))

let test_prng_powerlaw () =
  let rng = U.Prng.create 5 in
  let counts = Array.make 11 0 in
  for _ = 1 to 20000 do
    let d = U.Prng.powerlaw_int rng ~gamma:2.5 ~dmin:1 ~dmax:10 in
    checkb "in range" true (d >= 1 && d <= 10);
    counts.(d) <- counts.(d) + 1
  done;
  (* The mass must be decreasing and heavily skewed toward 1. *)
  checkb "monotone head" true (counts.(1) > counts.(2) && counts.(2) > counts.(3));
  checkb "skew" true (counts.(1) > 10000)

let test_prng_shuffle_permutes () =
  let rng = U.Prng.create 9 in
  let a = Array.init 50 Fun.id in
  U.Prng.shuffle rng a;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) (Th.sorted_array a)

(* Sorted *)

let prop_sorted_of_list =
  QCheck.Test.make ~name:"sorted: of_list sorts and dedups" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let a = U.Sorted.of_list xs in
      U.Sorted.is_sorted_strict a && Array.to_list a = List.sort_uniq compare xs)

let prop_sorted_set_ops =
  QCheck.Test.make ~name:"sorted: inter/union/diff match list model" ~count:300
    QCheck.(pair (list (int_bound 20)) (list (int_bound 20)))
    (fun (xs, ys) ->
      let a = U.Sorted.of_list xs and b = U.Sorted.of_list ys in
      let la = List.sort_uniq compare xs and lb = List.sort_uniq compare ys in
      let model_inter = List.filter (fun x -> List.mem x lb) la in
      let model_union = List.sort_uniq compare (la @ lb) in
      let model_diff = List.filter (fun x -> not (List.mem x lb)) la in
      Array.to_list (U.Sorted.inter a b) = model_inter
      && Array.to_list (U.Sorted.union a b) = model_union
      && Array.to_list (U.Sorted.diff a b) = model_diff
      && U.Sorted.inter_count a b = List.length model_inter
      && U.Sorted.subset a b = List.for_all (fun x -> List.mem x lb) la)

let prop_sorted_mem =
  QCheck.Test.make ~name:"sorted: mem is list membership" ~count:300
    QCheck.(pair (list (int_bound 30)) (int_bound 30))
    (fun (xs, x) ->
      let a = U.Sorted.of_list xs in
      U.Sorted.mem a x = List.mem x xs)

let test_sorted_remove () =
  let a = U.Sorted.of_list [ 1; 3; 5 ] in
  Alcotest.(check (array int)) "remove present" [| 1; 5 |] (U.Sorted.remove a 3);
  Alcotest.(check (array int)) "remove absent" [| 1; 3; 5 |] (U.Sorted.remove a 4)

(* Int_histogram *)

let test_histogram () =
  let h = U.Int_histogram.of_array [| 1; 1; 2; 5; 1 |] in
  check "count 1" 3 (U.Int_histogram.count h 1);
  check "count absent" 0 (U.Int_histogram.count h 3);
  check "total" 5 (U.Int_histogram.total h);
  check "max" 5 (U.Int_histogram.max_value h);
  check "mode" 1 (U.Int_histogram.mode h);
  check "cumulative >= 2" 2 (U.Int_histogram.cumulative_ge h 2);
  Alcotest.(check (list (pair int int)))
    "support"
    [ (1, 3); (2, 1); (5, 1) ]
    (U.Int_histogram.support h);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (U.Int_histogram.mean h)

let test_histogram_negative () =
  Alcotest.check_raises "negative value"
    (Invalid_argument "Int_histogram: negative value") (fun () ->
      ignore (U.Int_histogram.of_array [| -1 |]))

(* Linreg *)

let test_linreg_exact_line () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) +. 1.0)) in
  let f = U.Linreg.fit pts in
  Alcotest.(check (float 1e-9)) "slope" 2.5 f.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 f.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 f.r2;
  Alcotest.(check (float 1e-9)) "predict" 26.0 (U.Linreg.predict f 10.0)

let test_linreg_noisy () =
  let pts = [| (0.0, 0.1); (1.0, 0.9); (2.0, 2.1); (3.0, 2.9) |] in
  let f = U.Linreg.fit pts in
  Alcotest.(check bool) "slope near 1" true (Float.abs (f.slope -. 1.0) < 0.1);
  Alcotest.(check bool) "good r2" true (f.r2 > 0.99);
  let r = U.Linreg.residuals f pts in
  Alcotest.(check bool) "residuals near zero" true
    (Array.for_all (fun x -> Float.abs x < 0.2) r)

let test_linreg_degenerate () =
  Alcotest.check_raises "single point"
    (Invalid_argument "Linreg.fit: need at least two points") (fun () ->
      ignore (U.Linreg.fit [| (1.0, 1.0) |]));
  Alcotest.check_raises "vertical"
    (Invalid_argument "Linreg.fit: degenerate x values") (fun () ->
      ignore (U.Linreg.fit [| (1.0, 1.0); (1.0, 2.0) |]))

let test_summary_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (U.Linreg.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "variance" (2.0 /. 3.0)
    (U.Linreg.variance [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev of constants" 0.0
    (U.Linreg.stddev [| 4.0; 4.0 |])

(* Table *)

let test_table_render () =
  let s = U.Table.render ~header:[ "name"; "n" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check "line count" 4 (List.length lines);
  Alcotest.(check string) "header" "name   n" (List.nth lines 0);
  Alcotest.(check string) "row" "a      1" (List.nth lines 2);
  Alcotest.(check string) "row 2" "bb    22" (List.nth lines 3)

let test_table_fmt () =
  Alcotest.(check string) "float trim" "2.528" (U.Table.fmt_float ~digits:3 2.528);
  Alcotest.(check string) "float trailing" "2.5" (U.Table.fmt_float ~digits:3 2.5);
  Alcotest.(check string) "int-like" "3" (U.Table.fmt_float 3.0001);
  Alcotest.(check string) "seconds" "0.47 s" (U.Table.fmt_time 0.47);
  Alcotest.(check string) "minutes" "2 m" (U.Table.fmt_time 120.0);
  Alcotest.(check string) "hours" "1.5 h" (U.Table.fmt_time 5400.0)

(* Heap *)

let test_heap_basic () =
  let h = U.Heap.create () in
  checkb "empty" true (U.Heap.is_empty h);
  U.Heap.push h ~priority:3.0 30;
  U.Heap.push h ~priority:1.0 10;
  U.Heap.push h ~priority:2.0 20;
  check "size" 3 (U.Heap.size h);
  (match U.Heap.peek h with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "peek prio" 1.0 p;
    check "peek value" 10 v
  | None -> Alcotest.fail "peek on non-empty heap");
  (match U.Heap.pop h with
  | Some (_, 10) -> ()
  | Some _ | None -> Alcotest.fail "pop order");
  check "size after pop" 2 (U.Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap: repeated pop yields sorted priorities" ~count:300
    QCheck.(list (pair (float_bound_exclusive 100.0) small_int))
    (fun entries ->
      let h = U.Heap.create () in
      List.iter (fun (p, v) -> U.Heap.push h ~priority:p v) entries;
      let rec drain acc =
        match U.Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let prios = drain [] in
      prios = List.sort compare prios && List.length prios = List.length entries)

(* Parallel *)

let test_parallel_sum () =
  let sum domains =
    U.Parallel.fold_range ~domains ~n:10000
      ~create:(fun () -> 0)
      ~fold:( + )
      ~combine:( + )
  in
  let expected = 10000 * 9999 / 2 in
  check "sequential" expected (sum 1);
  check "two domains" expected (sum 2);
  check "four domains" expected (sum 4);
  check "more domains than work" 3 (U.Parallel.fold_range ~domains:8 ~n:3
    ~create:(fun () -> 0) ~fold:(fun a i -> a + i) ~combine:( + ))

let test_parallel_empty_range () =
  check "empty range" 7
    (U.Parallel.fold_range ~domains:4 ~n:0 ~create:(fun () -> 7)
       ~fold:(fun a _ -> a + 1) ~combine:( + ))

let test_parallel_errors () =
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Parallel.fold_range: domains < 1") (fun () ->
      ignore
        (U.Parallel.fold_range ~domains:0 ~n:1 ~create:(fun () -> 0)
           ~fold:(fun a _ -> a) ~combine:( + )));
  Alcotest.check_raises "worker exception surfaces" Exit (fun () ->
      ignore
        (U.Parallel.fold_range ~domains:3 ~n:300
           ~create:(fun () -> 0)
           ~fold:(fun _ i -> if i = 250 then raise Exit else i)
           ~combine:( + )))

let test_recommended_domains () =
  let d = U.Parallel.recommended_domains () in
  checkb "at least one" true (d >= 1);
  checkb "capped" true (d <= 8)

let with_budget b f =
  let saved = U.Parallel.domain_budget () in
  U.Parallel.set_domain_budget b;
  Fun.protect ~finally:(fun () -> U.Parallel.set_domain_budget saved) f

let test_parallel_small_n_fans_out () =
  (* An 8-item range at 4 domains used to fall back to one domain
     (n < 2 * domains); heavy-item small-n sweeps must fan out.  The
     fold records which domain ran each index. *)
  with_budget 4 (fun () ->
      let ids =
        U.Parallel.fold_range ~domains:4 ~n:8
          ~create:(fun () -> [])
          ~fold:(fun acc i -> (i, Domain.self ()) :: acc)
          ~combine:( @ )
      in
      check "all indices folded" 8 (List.length ids);
      checkb "every index exactly once" true
        (List.sort compare (List.map fst ids) = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
      let distinct =
        List.sort_uniq compare (List.map snd ids) |> List.length
      in
      check "four domains used" 4 distinct)

let test_parallel_remainder_first () =
  (* n = 7 over 3 domains: chunks 3/2/2 — no chunk empty, every index
     covered once, deterministic left-to-right combine. *)
  with_budget 8 (fun () ->
      let idx =
        U.Parallel.fold_range ~domains:3 ~n:7
          ~create:(fun () -> [])
          ~fold:(fun acc i -> i :: acc)
          ~combine:(fun a b -> a @ b)
      in
      checkb "in-order coverage" true
        (List.rev idx = [ 0; 1; 2; 3; 4; 5; 6 ] || List.sort compare idx = [ 0; 1; 2; 3; 4; 5; 6 ]))

let test_domain_budget_clamp () =
  with_budget 8 (fun () ->
      check "idle clamp is the budget" 8 (U.Parallel.effective_domains 8);
      check "requests below budget pass" 3 (U.Parallel.effective_domains 3);
      U.Parallel.enter_job ();
      U.Parallel.enter_job ();
      check "occupancy visible" 2 (U.Parallel.occupancy ());
      check "two jobs split the budget" 4 (U.Parallel.effective_domains 8);
      U.Parallel.enter_job ();
      U.Parallel.enter_job ();
      check "four jobs quarter it" 2 (U.Parallel.effective_domains 8);
      for _ = 1 to 4 do U.Parallel.leave_job () done;
      check "budget restored when jobs leave" 8 (U.Parallel.effective_domains 8);
      U.Parallel.set_domain_budget 1;
      check "floor of one domain" 1 (U.Parallel.effective_domains 8));
  Alcotest.check_raises "unbalanced leave"
    (Invalid_argument "Parallel.leave_job: no job entered") (fun () ->
      U.Parallel.leave_job ())

let prop_parallel_deterministic =
  QCheck.Test.make ~name:"parallel: result independent of domain count" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 500))
    (fun (domains, n) ->
      let run d =
        U.Parallel.fold_range ~domains:d ~n
          ~create:(fun () -> [])
          ~fold:(fun acc i -> (i * i) :: acc)
          ~combine:(fun a b -> a @ b)
      in
      List.sort compare (run domains) = List.sort compare (run 1))

(* Lru *)

let test_lru_basic () =
  let l = U.Lru.create ~capacity:3 () in
  checkb "empty" true (U.Lru.is_empty l);
  check "capacity" 3 (U.Lru.capacity l);
  checkb "no eviction" true (U.Lru.set l "a" 1 = None);
  checkb "no eviction" true (U.Lru.set l "b" 2 = None);
  check "length" 2 (U.Lru.length l);
  checkb "find" true (U.Lru.find l "a" = Some 1);
  checkb "peek" true (U.Lru.peek l "b" = Some 2);
  checkb "missing" true (U.Lru.find l "z" = None);
  checkb "mem" true (U.Lru.mem l "a");
  checkb "remove" true (U.Lru.remove l "a");
  checkb "remove missing" false (U.Lru.remove l "a");
  U.Lru.clear l;
  check "cleared" 0 (U.Lru.length l)

let test_lru_eviction_order () =
  let l = U.Lru.create ~capacity:2 () in
  ignore (U.Lru.set l "a" 1);
  ignore (U.Lru.set l "b" 2);
  (* Touch "a" so "b" is the LRU. *)
  ignore (U.Lru.find l "a");
  checkb "lru is b" true (U.Lru.lru l = Some ("b", 2));
  checkb "evicts b" true (U.Lru.set l "c" 3 = Some ("b", 2));
  checkb "a survives" true (U.Lru.mem l "a");
  (* Replacing an existing key never evicts. *)
  checkb "replace" true (U.Lru.set l "a" 10 = None);
  checkb "replaced" true (U.Lru.peek l "a" = Some 10);
  check "length" 2 (U.Lru.length l)

let test_lru_zero_capacity () =
  let l = U.Lru.create ~capacity:0 () in
  checkb "set bounces" true (U.Lru.set l "a" 1 = Some ("a", 1));
  check "stays empty" 0 (U.Lru.length l);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (U.Lru.create ~capacity:(-1) ()))

(* Model-based property: an association list kept MRU-first, with the
   same promote-on-hit / evict-from-tail rules. *)
type lru_op = Set of int * int | Find of int | Peek of int | Remove of int

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Set (k, v)) (int_range 0 9) (int_range 0 99));
        (2, map (fun k -> Find k) (int_range 0 9));
        (1, map (fun k -> Peek k) (int_range 0 9));
        (1, map (fun k -> Remove k) (int_range 0 9));
      ])

let lru_op_print = function
  | Set (k, v) -> Printf.sprintf "set %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Remove k -> Printf.sprintf "remove %d" k

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru: agrees with list model" ~count:300
    QCheck.(
      pair (int_range 1 5)
        (make ~print:(fun l -> String.concat "; " (List.map lru_op_print l))
           (Gen.list_size (Gen.int_range 0 40) lru_op_gen)))
    (fun (cap, ops) ->
      let l = U.Lru.create ~capacity:cap () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Set (k, v) ->
            let evicted = U.Lru.set l k v in
            let expected_evicted =
              if List.mem_assoc k !model then begin
                model := (k, v) :: List.remove_assoc k !model;
                None
              end
              else if List.length !model >= cap then begin
                let doomed = List.nth !model (List.length !model - 1) in
                model :=
                  (k, v) :: List.filter (fun (k', _) -> k' <> fst doomed) !model;
                Some doomed
              end
              else begin
                model := (k, v) :: !model;
                None
              end
            in
            evicted = expected_evicted
            && U.Lru.length l <= cap
            && U.Lru.to_list l = !model
          | Find k ->
            let got = U.Lru.find l k in
            let expected = List.assoc_opt k !model in
            if expected <> None then
              model :=
                (k, Option.get expected) :: List.remove_assoc k !model;
            got = expected && U.Lru.to_list l = !model
          | Peek k -> U.Lru.peek l k = List.assoc_opt k !model
          | Remove k ->
            let removed = U.Lru.remove l k in
            let expected = List.mem_assoc k !model in
            model := List.remove_assoc k !model;
            removed = expected && U.Lru.to_list l = !model)
        ops)

(* Log *)

let checks = Alcotest.(check string)

let test_log_render () =
  checks "fixed keys and escaping"
    "{\"ts\":\"1970-01-01T00:00:00.000Z\",\"level\":\"info\",\"comp\":\"test\",\
     \"msg\":\"tab\\there\",\"k\":\"a\\\"b\\\\c\\nd\",\"ctl\":\"\\u0001\"}"
    (U.Log.render ~ts:0.0 U.Log.Info ~comp:"test"
       ~fields:[ ("k", "a\"b\\c\nd"); ("ctl", "\x01") ]
       "tab\there");
  checks "millis" "2001-09-09T01:46:40.500Z"
    (String.sub
       (U.Log.render ~ts:1_000_000_000.5 U.Log.Error ~comp:"c" ~fields:[] "m")
       7 24)

let test_log_levels_and_ring () =
  let saved = U.Log.current_level () in
  Fun.protect
    ~finally:(fun () -> U.Log.set_level saved)
    (fun () ->
      U.Log.set_level U.Log.Warn;
      checkb "debug disabled" false (U.Log.enabled U.Log.Debug);
      checkb "info disabled" false (U.Log.enabled U.Log.Info);
      checkb "warn enabled" true (U.Log.enabled U.Log.Warn);
      checkb "error enabled" true (U.Log.enabled U.Log.Error);
      U.Log.info ~comp:"ringtest" "below threshold, dropped";
      U.Log.warn ~comp:"ringtest" ~fields:[ ("n", "1") ] "first kept";
      U.Log.error ~comp:"ringtest" "second kept";
      match U.Log.recent 2 with
      | [ newest; older ] ->
        let has needle line =
          let nl = String.length needle and ll = String.length line in
          let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
          go 0
        in
        checkb "newest first" true (has "second kept" newest);
        checkb "older second" true (has "first kept" older);
        checkb "dropped line not retained" false (has "below threshold" older)
      | l -> Alcotest.failf "expected 2 retained lines, got %d" (List.length l))

(* Intsort *)

let test_intsort_known () =
  let a = [| 5; 3; 100000; 0; 3; 70000; 1 |] in
  U.Intsort.sort a;
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 3; 5; 70000; 100000 |] a

let test_intsort_len_prefix () =
  let a = [| 9; 4; 2; 77; 77; 77 |] in
  U.Intsort.sort ~len:3 a;
  Alcotest.(check (array int)) "prefix sorted, tail untouched"
    [| 2; 4; 9; 77; 77; 77 |] a

let test_intsort_negative () =
  Alcotest.check_raises "negative key"
    (Invalid_argument "Intsort.sort: negative key") (fun () ->
      U.Intsort.sort [| 1; -1 |])

let prop_intsort_matches_stdlib =
  QCheck.Test.make ~name:"intsort: agrees with stdlib sort" ~count:300
    QCheck.(list (int_bound 1_000_000))
    (fun xs ->
      let a = Array.of_list xs and b = Array.of_list xs in
      U.Intsort.sort a;
      Array.sort compare b;
      a = b)

let test_intsort_digit_widths () =
  (* Lengths and key widths that select different digit widths and
     pass counts, odd counts included (the result then lives in the
     scratch buffer and is copied back). *)
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun (n, bound) ->
      let a = Array.init n (fun _ -> Random.State.int rng bound) in
      let b = Array.copy a in
      U.Intsort.sort a;
      Array.sort compare b;
      Alcotest.(check bool) (Printf.sprintf "n=%d keys<%d" n bound) true (a = b))
    [ (2, 1); (300, 1 lsl 20); (5_000, 17_000); (5_000, 1 lsl 29);
      (70_000, 160_000); (70_000, 1 lsl 30 - 1) ]

let prop_merge_runs_counts =
  (* Splitting a multiset across buffers and merging must reproduce
     the run-length encoding of the sorted whole. *)
  QCheck.Test.make ~name:"intsort: merge_runs equals single-buffer RLE" ~count:200
    QCheck.(pair (list (int_bound 50)) (int_range 1 4))
    (fun (xs, k) ->
      let whole = Array.of_list xs in
      U.Intsort.sort whole;
      let expected = ref [] in
      U.Intsort.merge_runs
        [| (whole, Array.length whole) |]
        (fun key c -> expected := (key, c) :: !expected);
      (* Round-robin split, each bucket sorted independently. *)
      let buckets = Array.init k (fun _ -> ref []) in
      List.iteri (fun i x -> buckets.(i mod k) := x :: !(buckets.(i mod k))) xs;
      let bufs =
        Array.map
          (fun b ->
            let a = Array.of_list !b in
            U.Intsort.sort a;
            (a, Array.length a))
          buckets
      in
      let got = ref [] in
      U.Intsort.merge_runs bufs (fun key c -> got := (key, c) :: !got);
      !got = !expected)

(* Binary *)

let test_binary_known () =
  let b = Bytes.make 16 '\xff' in
  U.Binary.set_i64_le b ~pos:4 0x0102030405060708L;
  Alcotest.(check string) "little-endian layout"
    "\x08\x07\x06\x05\x04\x03\x02\x01"
    (Bytes.sub_string b 4 8);
  Alcotest.(check int64) "round trip" 0x0102030405060708L
    (U.Binary.get_i64_le b ~pos:4);
  U.Binary.set_int_le b ~pos:0 max_int;
  Alcotest.(check (option int)) "int round trip" (Some max_int)
    (U.Binary.get_int_le b ~pos:0);
  U.Binary.set_i64_le b ~pos:0 Int64.min_int;
  Alcotest.(check (option int)) "out-of-range i64 refused" None
    (U.Binary.get_int_le b ~pos:0)

let test_binary_bounds () =
  let b = Bytes.create 8 in
  let oob name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  oob "get past end" (fun () -> U.Binary.get_i64_le b ~pos:1);
  oob "get negative" (fun () -> U.Binary.get_i64_le b ~pos:(-1));
  oob "set past end" (fun () -> U.Binary.set_i64_le b ~pos:8 0L);
  oob "set negative int" (fun () -> U.Binary.set_int_le b ~pos:0 (-1));
  oob "hash64 range" (fun () -> U.Binary.hash64 U.Binary.hash64_seed b ~pos:4 ~len:5)

let prop_binary_vs_stdlib =
  (* The hand-rolled byte fiddling must agree with the stdlib codec in
     both directions, at every alignment. *)
  QCheck.Test.make ~name:"binary: i64 LE agrees with Bytes.get/set_int64_le"
    ~count:500
    QCheck.(pair int64 (int_bound 8))
    (fun (v, pos) ->
      let ours = Bytes.make 16 '\x5a' and ref_ = Bytes.make 16 '\x5a' in
      U.Binary.set_i64_le ours ~pos v;
      Bytes.set_int64_le ref_ pos v;
      Bytes.equal ours ref_
      && U.Binary.get_i64_le ours ~pos = Bytes.get_int64_le ref_ pos)

let prop_binary_int_round_trip =
  QCheck.Test.make ~name:"binary: non-negative int round-trips" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let b = Bytes.create 8 in
      U.Binary.set_int_le b ~pos:0 v;
      U.Binary.get_int_le b ~pos:0 = Some v)

let prop_hash64_chain =
  (* Chaining over a split must equal hashing the concatenation, and
     the checksum must notice any single-byte flip. *)
  QCheck.Test.make ~name:"binary: hash64 chains and separates" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_bound 63))
    (fun (s, at) ->
      let at = at mod String.length s in
      let whole = U.Binary.hash64_string U.Binary.hash64_seed s in
      let left = U.Binary.hash64_string U.Binary.hash64_seed (String.sub s 0 at) in
      let chained =
        U.Binary.hash64 left (Bytes.of_string s) ~pos:at ~len:(String.length s - at)
      in
      let flipped = Bytes.of_string s in
      Bytes.set flipped at (Char.chr (Char.code s.[at] lxor 1));
      whole = chained
      && whole <> U.Binary.hash64_string U.Binary.hash64_seed (Bytes.to_string flipped))

(* Md5 *)

let test_md5_rfc_vectors () =
  (* RFC 1321 appendix A.5. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (U.Md5.string input))
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" );
    ]

let test_md5_finalized () =
  let t = U.Md5.init () in
  U.Md5.feed_string t "abc";
  Alcotest.(check string) "idempotent digest" (U.Md5.hex t) (U.Md5.hex t);
  Alcotest.check_raises "feed after digest"
    (Invalid_argument "Md5.feed: context already finalized") (fun () ->
      U.Md5.feed_string t "more")

let prop_md5_matches_digest =
  (* Any chunking of any string must reproduce the stdlib digest. *)
  QCheck.Test.make ~name:"md5: chunked feed matches Digest.string" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (list (int_range 1 97)))
    (fun (s, cuts) ->
      let t = U.Md5.init () in
      let pos = ref 0 in
      List.iter
        (fun step ->
          let n = min step (String.length s - !pos) in
          if n > 0 then begin
            U.Md5.feed t (Bytes.unsafe_of_string s) ~pos:!pos ~len:n;
            pos := !pos + n
          end)
        cuts;
      U.Md5.feed_string t (String.sub s !pos (String.length s - !pos));
      U.Md5.hex t = Digest.to_hex (Digest.string s))

let () =
  Alcotest.run "hp_util"
    [
      ( "dynarray",
        [
          Alcotest.test_case "basic" `Quick test_dynarray_basic;
          Alcotest.test_case "bounds" `Quick test_dynarray_bounds;
          Alcotest.test_case "conversions" `Quick test_dynarray_conversions;
          Th.prop prop_dynarray_push_pop;
        ] );
      ( "bucket_queue",
        [
          Alcotest.test_case "basic" `Quick test_bucket_queue_basic;
          Alcotest.test_case "decrease/remove" `Quick test_bucket_queue_decrease;
          Alcotest.test_case "errors" `Quick test_bucket_queue_errors;
          Th.prop prop_bucket_queue_model;
        ] );
      ("disjoint_set", [ Alcotest.test_case "union-find" `Quick test_disjoint_set ]);
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "sampling" `Quick test_prng_sample;
          Alcotest.test_case "powerlaw" `Quick test_prng_powerlaw;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "intsort",
        [
          Alcotest.test_case "known" `Quick test_intsort_known;
          Alcotest.test_case "digit widths" `Quick test_intsort_digit_widths;
          Alcotest.test_case "len prefix" `Quick test_intsort_len_prefix;
          Alcotest.test_case "negative rejected" `Quick test_intsort_negative;
          Th.prop prop_intsort_matches_stdlib;
          Th.prop prop_merge_runs_counts;
        ] );
      ( "sorted",
        [
          Th.prop prop_sorted_of_list;
          Th.prop prop_sorted_set_ops;
          Th.prop prop_sorted_mem;
          Alcotest.test_case "remove" `Quick test_sorted_remove;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "tally" `Quick test_histogram;
          Alcotest.test_case "negative rejected" `Quick test_histogram_negative;
        ] );
      ( "linreg",
        [
          Alcotest.test_case "exact line" `Quick test_linreg_exact_line;
          Alcotest.test_case "noisy line" `Quick test_linreg_noisy;
          Alcotest.test_case "degenerate input" `Quick test_linreg_degenerate;
          Alcotest.test_case "summary stats" `Quick test_summary_stats;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
        ] );
      ( "heap",
        [ Alcotest.test_case "basic" `Quick test_heap_basic; Th.prop prop_heap_sorts ]
      );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Th.prop prop_lru_matches_model;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sum across domains" `Quick test_parallel_sum;
          Alcotest.test_case "empty range" `Quick test_parallel_empty_range;
          Alcotest.test_case "errors" `Quick test_parallel_errors;
          Alcotest.test_case "recommended domains" `Quick test_recommended_domains;
          Alcotest.test_case "small n fans out" `Quick test_parallel_small_n_fans_out;
          Alcotest.test_case "remainder-first chunks" `Quick test_parallel_remainder_first;
          Alcotest.test_case "domain budget clamp" `Quick test_domain_budget_clamp;
          Th.prop prop_parallel_deterministic;
        ] );
      ( "log",
        [
          Alcotest.test_case "json rendering" `Quick test_log_render;
          Alcotest.test_case "threshold and ring" `Quick test_log_levels_and_ring;
        ] );
      ( "binary",
        [
          Alcotest.test_case "known layout" `Quick test_binary_known;
          Alcotest.test_case "bounds" `Quick test_binary_bounds;
          Th.prop prop_binary_vs_stdlib;
          Th.prop prop_binary_int_round_trip;
          Th.prop prop_hash64_chain;
        ] );
      ( "md5",
        [
          Alcotest.test_case "rfc vectors" `Quick test_md5_rfc_vectors;
          Alcotest.test_case "finalized context" `Quick test_md5_finalized;
          Th.prop prop_md5_matches_digest;
        ] );
    ]
