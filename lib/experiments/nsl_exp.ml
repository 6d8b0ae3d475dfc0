open! Flb_taskgraph
open! Flb_platform
open! Flb_prelude

type cell = {
  workload : string;
  ccr : float;
  procs : int;
  algorithm : string;
  nsl_mean : float;
  nsl_min : float;
  nsl_max : float;
}

let run ?(domains = 1) ?(algorithms = Registry.paper_set)
    ?(suite = Workload_suite.fig4_suite ()) ?(ccrs = Workload_suite.paper_ccrs)
    ?(procs = Workload_suite.paper_procs) ?(instances_per_cell = 5) () =
  (* One job per (workload, ccr, P) grid point; jobs are independent and
     deterministic, so they can fan out over domains. *)
  let jobs =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun ccr -> List.map (fun p -> (workload, ccr, p)) procs)
          ccrs)
      suite
  in
  let run_job (workload, ccr, p) =
    let graphs = Workload_suite.instances ~count:instances_per_cell workload ~ccr in
    let machine = Machine.clique ~num_procs:p in
    let references =
      List.map (fun g -> Flb_schedulers.Mcp.schedule_length g machine) graphs
    in
    List.map
      (fun (algo : Registry.t) ->
        let nsls =
          List.map2
            (fun g reference -> Metrics.nsl (algo.run g machine) ~reference)
            graphs references
          |> Array.of_list
        in
        {
          workload = workload.Workload_suite.name;
          ccr;
          procs = p;
          algorithm = algo.Registry.name;
          nsl_mean = Stats.mean nsls;
          nsl_min = Stats.min nsls;
          nsl_max = Stats.max nsls;
        })
      algorithms
  in
  List.concat (Workers.map ~domains run_job jobs)

let panels cells =
  List.sort_uniq compare (List.map (fun c -> (c.workload, c.ccr)) cells)

let render cells =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (workload, ccr) ->
      let panel =
        List.filter (fun c -> c.workload = workload && c.ccr = ccr) cells
      in
      let algorithms =
        (* preserve first-appearance order *)
        List.fold_left
          (fun acc c -> if List.mem c.algorithm acc then acc else acc @ [ c.algorithm ])
          [] panel
      in
      let procs = List.sort_uniq compare (List.map (fun c -> c.procs) panel) in
      Buffer.add_string buf
        (Printf.sprintf "NSL vs MCP -- %s, CCR = %g\n" workload ccr);
      let table = Table.create ~header:("P" :: algorithms) in
      List.iter
        (fun p ->
          let row =
            List.map
              (fun a ->
                match
                  List.find_opt (fun c -> c.procs = p && c.algorithm = a) panel
                with
                | Some c -> Table.cell_float c.nsl_mean
                | None -> "-")
              algorithms
          in
          Table.add_row table (string_of_int p :: row))
        procs;
      Buffer.add_string buf (Table.render table);
      Buffer.add_char buf '\n')
    (panels cells);
  Buffer.contents buf

let to_csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "workload,ccr,procs,algorithm,nsl_mean,nsl_min,nsl_max\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%g,%d,%s,%.6f,%.6f,%.6f\n" c.workload c.ccr c.procs
           c.algorithm c.nsl_mean c.nsl_min c.nsl_max))
    cells;
  Buffer.contents buf
