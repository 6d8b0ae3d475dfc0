open! Flb_taskgraph
open! Flb_platform

type cell = {
  tasks : int;
  edges : int;
  procs : int;
  algorithm : string;
  seconds : float;
  ns_per_task : float;
  task_queue_ops_per_task : float;
  peak_ready : int;
}

let default_algorithms = [ Registry.flb; Registry.fcp; Registry.etf ]

let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let measure ~repeats (algo : Registry.t) g p =
  let v = Taskgraph.num_tasks g in
  let machine = Machine.clique ~num_procs:p in
  let seconds = time_best ~repeats (fun () -> ignore (algo.run g machine)) in
  (* Counting probe on a separate, untimed run so the probe cannot
     perturb the timing above. *)
  let _, report = Registry.run_with_report ~timed:false algo g machine in
  {
    tasks = v;
    edges = Taskgraph.num_edges g;
    procs = p;
    algorithm = algo.name;
    seconds;
    ns_per_task = seconds *. 1e9 /. float_of_int v;
    task_queue_ops_per_task =
      float_of_int report.Flb_obs.Probe.task_queue_ops /. float_of_int v;
    peak_ready = report.Flb_obs.Probe.peak_ready;
  }

(* ETF's O(W (E + V) P) scan would take minutes per run at P = 1024, so
   it is measured only up to P = 32, the range of the paper's Fig. 2. *)
let etf_max_procs = 32

let run ?(algorithms = default_algorithms)
    ?(sizes = [ 250; 500; 1000; 2000; 4000 ]) ?(procs = [ 4; 32 ]) ?(repeats = 3)
    () =
  List.concat_map
    (fun tasks ->
      let workload = Workload_suite.stencil ~tasks () in
      let g = Workload_suite.instance workload ~ccr:1.0 ~seed:1 in
      List.concat_map
        (fun p ->
          List.filter_map
            (fun (algo : Registry.t) ->
              if p > etf_max_procs && algo.name = Registry.etf.name then None
              else Some (measure ~repeats algo g p))
            algorithms)
        procs)
    sizes

let render cells =
  let algorithms =
    List.fold_left
      (fun acc c -> if List.mem c.algorithm acc then acc else acc @ [ c.algorithm ])
      [] cells
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Scaling with V and P (Stencil graphs, CCR 1.0)\n";
  let header =
    [ "V"; "E"; "P" ]
    @ List.map (fun a -> a ^ " [ns/task]") algorithms
    @ List.map (fun a -> a ^ " [ops/task]") algorithms
    @ [ "peak ready" ]
  in
  let table = Table.create ~header in
  let keys =
    List.sort_uniq compare (List.map (fun c -> (c.tasks, c.procs)) cells)
  in
  List.iter
    (fun (v, p) ->
      let row_cells = List.filter (fun c -> c.tasks = v && c.procs = p) cells in
      let edges =
        match row_cells with c :: _ -> c.edges | [] -> 0
      in
      let per_algo =
        List.map
          (fun a ->
            match List.find_opt (fun c -> c.algorithm = a) row_cells with
            | Some c -> Printf.sprintf "%.0f" c.ns_per_task
            | None -> "-")
          algorithms
      in
      let per_algo_ops =
        List.map
          (fun a ->
            match List.find_opt (fun c -> c.algorithm = a) row_cells with
            | Some c when c.task_queue_ops_per_task > 0.0 ->
              Printf.sprintf "%.2f" c.task_queue_ops_per_task
            | Some _ | None -> "-")
          algorithms
      in
      let peak =
        List.fold_left (fun acc c -> max acc c.peak_ready) 0 row_cells
      in
      Table.add_row table
        ([ string_of_int v; string_of_int edges; string_of_int p ]
        @ per_algo @ per_algo_ops
        @ [ (if peak > 0 then string_of_int peak else "-") ]))
    keys;
  Buffer.add_string buf (Table.render table);
  Buffer.contents buf

let to_csv cells =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "tasks,edges,procs,algorithm,seconds,ns_per_task,task_queue_ops_per_task,peak_ready\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%.9f,%.1f,%.3f,%d\n" c.tasks c.edges c.procs
           c.algorithm c.seconds c.ns_per_task c.task_queue_ops_per_task
           c.peak_ready))
    cells;
  Buffer.contents buf
