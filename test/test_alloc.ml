(* Allocation budget of the probe-less scheduler hot paths.

   The FLB and ETF runs below must allocate O(1) bytes per scheduled
   task beyond graph construction: queue state and schedule arrays are
   O(V + P) (FLB's per-processor EP lists share one task-indexed
   universe and grow only their member arrays, by doubling), keys live
   in unboxed float arrays, and the per-iteration loops stream the CSR
   edge arrays. The budgets are roughly 2x the largest figure
   measured on this graph — ~430 B/task for FLB (at P = 1024; ~300 at
   P = 8) and ~140 B/task for ETF at P = 8. FLB is measured up to
   P = 1024 so that any P-sized array of V-sized structures blows the
   budget (2P graph-sized heaps cost ~34 KB/task at P = 512), as does a
   regression to boxed tuple keys, option-returning peeks or
   per-iteration records — the pre-CSR code measured ~2.5 KB/task for
   FLB and ~38 KB/task for ETF at P = 8. *)

open! Flb_taskgraph
open! Flb_platform

let graph =
  lazy
    (Flb_experiments.Workload_suite.instance
       (Flb_experiments.Workload_suite.stencil ~tasks:1000 ())
       ~ccr:1.0 ~seed:1)

let bytes_per_task ~procs run =
  let g = Lazy.force graph in
  let machine = Machine.clique ~num_procs:procs in
  let n = float_of_int (Taskgraph.num_tasks g) in
  (* Warm-up run: faults in lazily materialized views and one-time
     state so the measured runs see only steady-state allocation. Each
     measured run starts on an empty minor heap: a minor collection
     landing inside the run adds a runtime-internal lump (0.9 or 1.8 MB
     on OCaml 5.1) to the [Gc.allocated_bytes] delta, and on this graph
     no run then sees one (every repeat reads the same figure). The
     best-of-N stays as a second guard. *)
  run g machine;
  let best = ref Float.infinity in
  for _ = 1 to 5 do
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    run g machine;
    let after = Gc.allocated_bytes () in
    if after -. before < !best then best := after -. before
  done;
  !best /. n

let check_budget name budget measured =
  if measured > budget then
    Alcotest.failf
      "%s hot path allocates %.1f bytes/task (budget %.1f): a per-iteration \
       allocation or P x V queue state crept back in"
      name measured budget

let test_flb_budget () =
  List.iter
    (fun procs ->
      check_budget
        (Printf.sprintf "FLB (P = %d)" procs)
        800.0
        (bytes_per_task ~procs (fun g m ->
             ignore (Flb_core.Flb.run ~probe:Flb_obs.Probe.null g m))))
    [ 8; 512; 1024 ]

let test_etf_budget () =
  check_budget "ETF" 300.0
    (bytes_per_task ~procs:8 (fun g m -> ignore (Flb_schedulers.Etf.run g m)))

let suite =
  [
    Alcotest.test_case "FLB allocates O(1) bytes per task" `Quick test_flb_budget;
    Alcotest.test_case "ETF allocates O(1) bytes per task" `Quick test_etf_budget;
  ]
