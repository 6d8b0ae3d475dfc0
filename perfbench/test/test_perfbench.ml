(* Exact, host-independent checks of the benchmark itself: its order
   statistics, its span arithmetic, its inputs, its output checks, the
   cache behaviour its serving workloads are built on, and the agreement
   of BENCHMARK.json with what the runs print. *)

open! Flb_taskgraph
open! Flb_platform
open Flb_perfbench

let flb = "../../bin/flb_cli.exe"

let check_float = Alcotest.(check (float 0.0))

let test_percentiles () =
  let ascending = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let shuffled = Array.init 100 (fun i -> float_of_int ((i * 37 mod 100) + 1)) in
  List.iter
    (fun a ->
      check_float "p50" 50.0 (Pstats.percentile a 0.5);
      check_float "p99" 99.0 (Pstats.percentile a 0.99);
      check_float "p100" 100.0 (Pstats.percentile a 1.0);
      check_float "p1" 1.0 (Pstats.percentile a 0.01))
    [ ascending; shuffled ];
  (* Nearest rank: every percentile is one of the samples. *)
  check_float "p50 of 4" 2.0 (Pstats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 0.5);
  check_float "p99 of 4" 4.0 (Pstats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 0.99);
  check_float "single" 7.5 (Pstats.percentile [| 7.5 |] 0.99);
  check_float "empty" 0.0 (Pstats.percentile [||] 0.5);
  (* The run's p99: each instance's own p99, then their lower quartile.
     Instance k holds 0..99 and two samples of 100 k, its p99. *)
  let instance k = Array.append (Array.init 100 float_of_int) (Array.make 2 (100.0 *. k)) in
  check_float "instance p99" 700.0 (Pstats.percentile (instance 7.0) 0.99);
  check_float "lower quartile of 12 instance p99s" 300.0
    (Loop.instance_p99 (List.map instance [ 9.; 3.; 1.; 5.; 2.; 8.; 4.; 7.; 6.; 10.; 12.; 11. ]))

let test_self_time () =
  let s = Spans.create ~enabled:true in
  let root = Spans.add s ~parent:0 ~name:"op" ~start_ns:0L ~end_ns:100_000L in
  ignore (Spans.add s ~parent:root ~name:"io" ~start_ns:10_000L ~end_ns:40_000L);
  ignore (Spans.add s ~parent:root ~name:"io" ~start_ns:50_000L ~end_ns:60_000L);
  let self = Spans.self_us s in
  Alcotest.(check (array (float 1e-9))) "op self" [| 60.0 |] (List.assoc "op" self);
  Alcotest.(check (float 1e-9)) "io self" 40.0 (Pstats.sum (List.assoc "io" self));
  Alcotest.(check int) "disabled records nothing" 0
    (Spans.add Spans.disabled ~parent:0 ~name:"x" ~start_ns:0L ~end_ns:1L)

let test_inputs_deterministic () =
  let texts seed =
    let s = Inputs.structures ~tasks:Inputs.large_tasks in
    let u = Inputs.unique_cells s ~seed in
    Array.to_list (Array.map (fun r -> r.Inputs.text) (Inputs.repeat_requests ~seed))
    @ List.init 8 (fun i -> (Inputs.unique_request u ~seed i).Inputs.text)
    @ List.init 3 (fun i -> Serial.to_string (Inputs.stream_graph s ~seed i))
    @ Array.to_list (Array.map Serial.to_string (Inputs.execute_graphs ~seed))
  in
  let a = texts 11 and b = texts 11 and c = texts 12 in
  Alcotest.(check (list string)) "same seed, same bytes" a b;
  List.iter2 (fun x y -> Alcotest.(check bool) "another seed differs" false (x = y)) a c;
  Alcotest.(check int) "no two inputs alike" (List.length a)
    (List.length (List.sort_uniq compare a))

let test_unique_procs () =
  let u = Inputs.unique_cells (Inputs.structures ~tasks:Inputs.large_tasks) ~seed:1 in
  Alcotest.(check (list int)) "P cycles after every cell"
    [ 8; 8; 8; 8; 8; 8; 64; 64; 64; 64; 64; 64; 512; 512; 512; 512; 512; 512; 8 ]
    (List.init 19 (fun i -> (Inputs.unique_request u ~seed:1 i).Inputs.procs))

let test_checks () =
  let r = (Inputs.repeat_requests ~seed:3).(0) in
  let g = Serial.of_string r.Inputs.text in
  let m = Machine.clique ~num_procs:r.Inputs.procs in
  let s = Layers.flb.run g m in
  let schedule = Schedule_io.to_string s and makespan = Schedule.makespan s in
  let text = r.Inputs.text and procs = r.Inputs.procs in
  Alcotest.(check bool) "a served schedule passes" true
    (Result.is_ok (Check.one_shot ~text ~procs ~schedule ~makespan));
  Alcotest.(check bool) "a wrong makespan fails" false
    (Result.is_ok (Check.one_shot ~text ~procs ~schedule ~makespan:(makespan +. 1.0)));
  (* A stream's tasks arrive in stream order, which is topological. *)
  let g = Streaming.graph_of_batches (Flb_stream.Chunk.plan ~chunks:4 g) in
  let s = Layers.flb.run g m in
  let makespan = Schedule.makespan s in
  let placements =
    Array.init (Taskgraph.num_tasks g) (fun t -> (t, Schedule.proc s t, Schedule.start_time s t))
  in
  let stream placements = Result.is_ok (Check.stream ~graph:g ~procs ~placements ~makespan) in
  Alcotest.(check bool) "every task once passes" true (stream placements);
  Alcotest.(check bool) "a task placed twice fails" false
    (stream (Array.append placements [| placements.(0) |]));
  Alcotest.(check bool) "a missing task fails" false
    (stream (Array.sub placements 1 (Array.length placements - 1)))

let test_clients () =
  Alcotest.(check bool) "one processor refused" false (Result.is_ok (Loop.check_clients ~nproc:1));
  Alcotest.(check bool) "two processors run" true (Result.is_ok (Loop.check_clients ~nproc:2))

(* One instance of a serving workload, set up, measured and checked as a
   run does it, with the daemons' cache hit ratio over the window. *)
let hit_ratio kind =
  let env = Serving.setup ~flb ~seed:5 kind () in
  Fun.protect
    ~finally:(fun () -> Serving.teardown env)
    (fun () ->
      let m = Serving.measure ~trace:false ~spans:Spans.disabled env ~first:0 ~seconds:0.5 in
      Alcotest.(check bool) "every answer checked correct" true
        (Array.for_all Result.is_ok (Serving.check_all env m.Serving.untraced));
      Pstats.ratio m.Serving.hits (m.Serving.hits + m.Serving.misses))

let test_hit_ratios () =
  check_float "unique-direct never hits" 0.0 (hit_ratio Serving.Unique_direct);
  let repeat = hit_ratio Serving.Repeat_direct in
  Alcotest.(check bool) (Printf.sprintf "repeat-direct hits after warm-up (%g)" repeat) true
    (repeat >= 0.99)

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) name true
        (contains (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"," name unit_)))
    (Report.end_to_end @ Report.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ( "measurement",
        [
          Alcotest.test_case "exact percentiles" `Quick test_percentiles;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "client threads vs processors" `Quick test_clients;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seed determines the bytes" `Quick test_inputs_deterministic;
          Alcotest.test_case "unique P cycle" `Quick test_unique_procs;
        ] );
      ("checks", [ Alcotest.test_case "output checks" `Quick test_checks ]);
      ("serving", [ Alcotest.test_case "cache hit ratios" `Quick test_hit_ratios ]);
      ("benchmark.json", [ Alcotest.test_case "lists every printed metric" `Quick test_benchmark_json ]);
    ]
