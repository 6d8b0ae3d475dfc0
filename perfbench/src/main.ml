(* Runs one benchmark workload and prints its metrics; the last line of
   output is the result as one JSON object.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            --flb PATH --out DIR [--git-rev REV]

   [--flb] is the built [flb] binary the serving workloads start as
   separate processes; [--out] receives the result with its host
   metadata and, for a traced run, the spans.

   main.exe --workload execute --seed N --trace 0|1 --instance

   is one instance of the execute workload, which a run starts as a
   process of its own and talks to over its standard input and output
   (see [Execute]). *)

open Flb_perfbench

let workloads = [ "repeat-direct"; "unique-direct"; "repeat-routed"; "stream-unique"; "execute" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --flb PATH --out DIR \
     [--git-rev REV]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let arg name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let need name = match arg name with Some v -> v | None -> usage () in
  let num name conv = match conv (need name) with Some v -> v | None -> usage () in
  let workload = need "--workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let seed = num "--seed" int_of_string_opt in
  let trace =
    match need "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if List.mem "--instance" args then begin
    if workload <> "execute" then usage ();
    Execute.instance ~seed ~trace;
    exit 0
  end;
  let seconds = num "--seconds" float_of_string_opt in
  let flb = need "--flb" and out = need "--out" in
  let git_rev = Option.value ~default:"unknown" (arg "--git-rev") in
  let nproc = Domain.recommended_domain_count () in
  (match Loop.check_clients ~nproc with
  | Ok () -> ()
  | Error msg ->
    prerr_endline msg;
    exit 2);
  let threads, connections = if workload = "execute" then (1, 0) else (Loop.clients, Loop.clients) in
  let host =
    Printf.sprintf
      "{\"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \"client_threads\": %d, \"connections\": %d, \
       \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b}"
      nproc Sys.ocaml_version git_rev threads connections workload seed seconds trace
  in
  Printf.printf "host: %s\n%!" host;
  let ticks0 = Procs.cpu_ticks () in
  let result =
    match workload with
    | "repeat-direct" -> Serving.run ~flb ~seed ~seconds ~trace Serving.Repeat_direct
    | "unique-direct" -> Serving.run ~flb ~seed ~seconds ~trace Serving.Unique_direct
    | "repeat-routed" -> Serving.run ~flb ~seed ~seconds ~trace Serving.Repeat_routed
    | "stream-unique" -> Streaming.run ~flb ~seed ~seconds ~trace
    | _ -> Execute.run ~seed ~seconds ~trace
  in
  let steal = Loop.steal_between ticks0 (Procs.cpu_ticks ()) in
  Printf.printf "host: %.2f%% of CPU time stolen by the hypervisor during the run\n" (100.0 *. steal);
  Report.print_human ~trace result;
  let line = Report.result_line ~trace result in
  let base = Filename.concat out (Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace)) in
  let oc = open_out (base ^ ".json") in
  Printf.fprintf oc "{\"host\": %s, \"cpu_steal\": %g, \"result\": %s}\n" host steal line;
  close_out oc;
  if trace then Spans.write_jsonl result.Report.spans ~path:(base ^ ".spans.jsonl");
  print_endline line
