open! Flb_prelude
open Testutil

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing one must not affect the other *)
  let before = Rng.bits64 b in
  ignore (Rng.bits64 a);
  let b2 = Rng.copy b in
  ignore before;
  Alcotest.(check int64) "copies stay in sync" (Rng.bits64 b) (Rng.bits64 b2)

let test_split_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "split stream differs from parent" true !differs

let test_int_errors () =
  let g = Rng.create ~seed:0 in
  check_raises_invalid "bound 0" (fun () -> Rng.int g 0);
  check_raises_invalid "negative bound" (fun () -> Rng.int g (-3));
  check_raises_invalid "empty range" (fun () -> Rng.int_in g ~lo:5 ~hi:4);
  check_raises_invalid "empty choose" (fun () -> Rng.choose g [||])

let test_exponential_mean () =
  let g = Rng.create ~seed:9 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential g ~mean:3.0 in
    check_bool "non-negative" true (x >= 0.0);
    acc := !acc +. x
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_bernoulli () =
  let g = Rng.create ~seed:13 in
  let hits = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Rng.bernoulli g ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.03);
  (* degenerate probabilities *)
  check_bool "p=0 never" false (Rng.bernoulli g ~p:0.0);
  check_bool "p=1 always" true (Rng.bernoulli g ~p:1.0)

let test_shuffle_permutation () =
  let g = Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_parallel_map () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "sequential fallback" (List.map (fun x -> x * x) xs)
    (Workers.map (fun x -> x * x) xs);
  Alcotest.(check (list int)) "parallel equals sequential"
    (List.map (fun x -> x * x) xs)
    (Workers.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more domains than work" [ 1; 2 ]
    (Workers.map ~domains:8 (fun x -> x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty input" [] (Workers.map ~domains:4 Fun.id []);
  check_bool "recommended at least 1" true (Workers.recommended_domains () >= 1)

let test_parallel_map_exception () =
  match
    Workers.map ~domains:3
      (fun x -> if x = 7 then failwith "boom" else x)
      (List.init 20 Fun.id)
  with
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m
  | _ -> Alcotest.fail "exception not propagated"

let qsuite =
  [
    qtest "parallel map equals List.map" QCheck.(pair (list int) (int_range 1 6))
      (fun (xs, domains) ->
        Workers.map ~domains (fun x -> (2 * x) + 1) xs
        = List.map (fun x -> (2 * x) + 1) xs);
    qtest "int g b in [0, b)" QCheck.(pair (int_range 1 1000) small_int)
      (fun (bound, seed) ->
        let g = Rng.create ~seed in
        let v = Rng.int g bound in
        v >= 0 && v < bound);
    qtest "int_in within range" QCheck.(triple small_signed_int (int_range 0 100) small_int)
      (fun (lo, span, seed) ->
        let g = Rng.create ~seed in
        let v = Rng.int_in g ~lo ~hi:(lo + span) in
        v >= lo && v <= lo + span);
    qtest "float g b in [0, b)" QCheck.(pair (float_range 0.001 1e6) small_int)
      (fun (bound, seed) ->
        let g = Rng.create ~seed in
        let v = Rng.float g bound in
        v >= 0.0 && v < bound);
    qtest "uniform in [lo, hi)" QCheck.(pair (pair (float_range (-50.) 50.) (float_range 0.001 100.)) small_int)
      (fun ((lo, span), seed) ->
        let g = Rng.create ~seed in
        let v = Rng.uniform g ~lo ~hi:(lo +. span) in
        v >= lo && v < lo +. span);
  ]

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split" `Quick test_split_independent;
    Alcotest.test_case "argument errors" `Quick test_int_errors;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
    Alcotest.test_case "parallel map exceptions" `Quick test_parallel_map_exception;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
