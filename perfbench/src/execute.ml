(* execute: the FLB P = 2 schedules of the 6 V ~ 1000 E4 graphs run on
   2 domains under the static, work-stealing and affinity engines, one
   execution at a time (the engines' two domains already occupy both
   processors). The grain is 1 us per weight unit and communication is
   charged, so engine overhead dominates. The op is one execution by one
   engine; the engines take turns on each graph.

   The engines run inside the generator, so each instance is a process
   of its own, as a daemon is for the serving workloads: this program
   started again with [--instance]. Every execution spawns and joins the
   engine's domains, and the OCaml runtime keeps the heap they grew, so
   one process's resident memory climbs with every execution it has run;
   a fresh process per instance makes [peak_rss_mb] the memory of one
   instance's executions, not of how many came before it. The child
   checks each execution and sends back a summary line per execution;
   the parent turns the traced ones back into spans. *)

open! Flb_platform
module Rt = Flb_runtime
module Engine = Rt.Engine

let engines = [| "static"; "steal"; "affinity" |]

let config = { Engine.default_config with domains = Inputs.execute_procs; unit_ns = 1000.0; charge_comm = true }

(* What the generator keeps of one execution. *)
type sample = {
  index : int;
  start_ns : int64;
  latency_s : float;
  engine : string;
  complete : bool;  (** every task ran, each on one domain *)
  real_ms : float;
  ratio : float;  (** real over predicted makespan; nan without a prediction *)
  busy_ns : float;
  idle_ns : float;
  completed : int;
  steals : int;
  failed_steals : int;
  hint_hits : int;
  hint_misses : int;
}

(* --- the child: one instance --- *)

let execute schedules i =
  let s = schedules.(i / Array.length engines mod Array.length schedules) in
  match engines.(i mod Array.length engines) with
  | "static" -> Rt.Static.run ~config s
  | "steal" -> Rt.Steal.run ~config (Schedule.graph s)
  | _ -> Rt.Affinity.run ~config s

let summary ~index ~start_ns ~latency_s (o : Engine.outcome) =
  {
    index;
    start_ns;
    latency_s;
    engine = o.Engine.engine;
    complete =
      Engine.complete o && o.Engine.completed = o.Engine.total
      && Array.fold_left ( + ) 0 o.Engine.per_domain_tasks = o.Engine.total;
    real_ms = o.Engine.real_ns /. 1e6;
    ratio = Engine.ratio o;
    busy_ns = Pstats.sum o.Engine.per_domain_busy_ns;
    idle_ns = Pstats.sum o.Engine.per_domain_idle_ns;
    completed = o.Engine.completed;
    steals = o.Engine.steals;
    failed_steals = o.Engine.failed_steals;
    hint_hits = o.Engine.hint_hits;
    hint_misses = o.Engine.hint_misses;
  }

let window schedules ~first ~seconds ~spans =
  let samples = ref [] in
  let op ~client:_ ~index =
    let start_ns = Spans.now_ns () in
    let outcome =
      Spans.with_span spans ("exec." ^ engines.(index mod Array.length engines)) (fun _ ->
          execute schedules index)
    in
    samples := summary ~index ~start_ns ~latency_s:(Spans.elapsed_s start_ns) outcome :: !samples
  in
  let wall = Loop.run ~clients:1 ~first ~seconds op in
  (List.rev !samples, wall)

let sample_line ~traced s =
  Printf.sprintf "s %d %d %Ld %.17g %s %d %.17g %.17g %.17g %.17g %d %d %d %d %d" (Bool.to_int traced)
    s.index s.start_ns s.latency_s s.engine (Bool.to_int s.complete) s.real_ms s.ratio s.busy_ns s.idle_ns
    s.completed s.steals s.failed_steals s.hint_hits s.hint_misses

(* The child's side of one instance, on its standard input and output:
   set up and answer [ready SCHEDULES MAKESPAN_MEAN]; on [go FIRST
   SECONDS] measure, then answer with one line per execution, the
   window's peak RSS, its wall time and [end]. With [trace] the second
   half of the window runs with spans recorded, as the parent's traced
   run asks. *)
let instance ~seed ~trace =
  let m = Machine.clique ~num_procs:Inputs.execute_procs in
  let schedules = Array.map (fun g -> Layers.flb.run g m) (Inputs.execute_graphs ~seed) in
  Array.iteri (fun i _ -> ignore (execute schedules i)) engines;
  Printf.printf "ready %d %.17g\n%!" (Array.length schedules)
    (Pstats.mean (Array.map Schedule.makespan schedules));
  match String.split_on_char ' ' (input_line stdin) with
  | [ "go"; first; seconds ] ->
    let first = int_of_string first and seconds = float_of_string seconds in
    (* The peak covers the window, not the set-up. *)
    Gc.compact ();
    Procs.reset_self_peak_rss ();
    let untraced, traced, wall =
      if trace then
        let u, w1 = window schedules ~first ~seconds:(seconds /. 2.0) ~spans:Spans.disabled in
        let t, w2 =
          window schedules ~first:(first + List.length u) ~seconds:(seconds /. 2.0)
            ~spans:(Spans.create ~enabled:true)
        in
        (u, t, w1 +. w2)
      else
        let u, wall = window schedules ~first ~seconds ~spans:Spans.disabled in
        (u, [], wall)
    in
    let rss_mb = Procs.self_peak_rss_mb () in
    List.iter (fun s -> print_endline (sample_line ~traced:false s)) untraced;
    List.iter (fun s -> print_endline (sample_line ~traced:true s)) traced;
    Printf.printf "rss %.17g\nwall %.17g\nend\n%!" rss_mb wall
  | _ -> failwith "execute instance: expected go FIRST SECONDS"

(* --- the parent --- *)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  schedules : int;
  makespan_mean : float;
}

let setup ~seed ~trace () =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; "execute"; "--seed"; string_of_int seed; "--trace";
         (if trace then "1" else "0"); "--instance" |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let to_child = Unix.out_channel_of_descr to_child and from_child = Unix.in_channel_of_descr from_child in
  match String.split_on_char ' ' (input_line from_child) with
  | [ "ready"; n; makespan ] ->
    { pid; to_child; from_child; schedules = int_of_string n; makespan_mean = float_of_string makespan }
  | _ -> failwith "execute instance: expected ready"

let teardown c =
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  ignore (Unix.waitpid [] c.pid)

let parse_sample = function
  | [ traced; index; start_ns; latency_s; engine; complete; real_ms; ratio; busy_ns; idle_ns; completed;
      steals; failed_steals; hint_hits; hint_misses ] ->
    ( traced = "1",
      {
        index = int_of_string index;
        start_ns = Int64.of_string start_ns;
        latency_s = float_of_string latency_s;
        engine;
        complete = complete = "1";
        real_ms = float_of_string real_ms;
        ratio = float_of_string ratio;
        busy_ns = float_of_string busy_ns;
        idle_ns = float_of_string idle_ns;
        completed = int_of_string completed;
        steals = int_of_string steals;
        failed_steals = int_of_string failed_steals;
        hint_hits = int_of_string hint_hits;
        hint_misses = int_of_string hint_misses;
      } )
  | _ -> failwith "execute instance: malformed sample"

type measured = { untraced : sample array; traced : sample array; wall : float; rss_mb : float }

let measure ~spans c ~first ~seconds =
  Printf.fprintf c.to_child "go %d %.17g\n%!" first seconds;
  let untraced = ref [] and traced = ref [] and rss_mb = ref nan and wall = ref nan in
  let rec read () =
    match String.split_on_char ' ' (input_line c.from_child) with
    | "s" :: fields ->
      let is_traced, s = parse_sample fields in
      if is_traced then begin
        ignore
          (Spans.add spans ~parent:0 ~name:("exec." ^ s.engine) ~start_ns:s.start_ns
             ~end_ns:(Int64.add s.start_ns (Int64.of_float (s.latency_s *. 1e9))));
        traced := s :: !traced
      end
      else untraced := s :: !untraced;
      read ()
    | [ "rss"; v ] ->
      rss_mb := float_of_string v;
      read ()
    | [ "wall"; v ] ->
      wall := float_of_string v;
      read ()
    | [ "end" ] -> ()
    | _ -> failwith "execute instance: malformed line"
  in
  read ();
  {
    untraced = Array.of_list (List.rev !untraced);
    traced = Array.of_list (List.rev !traced);
    wall = !wall;
    rss_mb = !rss_mb;
  }

let engine_values samples =
  let of_engine e =
    List.filter (fun s -> s.engine = e && s.complete) (Array.to_list samples)
  in
  let sum f l = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
  let idle_frac l =
    let idle = sum (fun s -> s.idle_ns) l and busy = sum (fun s -> s.busy_ns) l in
    if idle +. busy > 0.0 then idle /. (idle +. busy) else 0.0
  in
  let static = of_engine "static" and steal = of_engine "steal" and affinity = of_engine "affinity" in
  let real_p50 l = Pstats.median (Array.of_list (List.map (fun s -> s.real_ms) l)) in
  let count f l = sum (fun s -> float_of_int (f s)) l in
  let frac a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  [
    ("engine.static.real_over_predicted", Pstats.median (Array.of_list (List.map (fun s -> s.ratio) static)));
    ("engine.static.idle_frac", idle_frac static);
    ("engine.steal.idle_frac", idle_frac steal);
    ("engine.affinity.idle_frac", idle_frac affinity);
    ( "engine.steal.steals_per_task",
      let tasks = count (fun s -> s.completed) steal in
      if tasks > 0.0 then count (fun s -> s.steals) steal /. tasks else 0.0 );
    ( "engine.steal.failed_steal_ratio",
      frac (count (fun s -> s.failed_steals) steal) (count (fun s -> s.steals) steal) );
    ( "engine.affinity.hint_hit_ratio",
      frac (count (fun s -> s.hint_hits) affinity) (count (fun s -> s.hint_misses) affinity) );
    ("exec_static_p50_ms", real_p50 static);
    ("exec_steal_p50_ms", real_p50 steal);
    ("exec_affinity_p50_ms", real_p50 affinity);
  ]

let ok_ms samples =
  Array.of_list
    (List.filter_map (fun s -> if s.complete then Some (s.latency_s *. 1e3) else None) (Array.to_list samples))

let run ~seed ~seconds ~trace =
  let spans = Spans.create ~enabled:trace in
  let results, env =
    Loop.over_instances ~seconds ~setup:(setup ~seed ~trace) ~teardown ~measure:(measure ~spans)
      ~ops:(fun m -> Array.length m.untraced + Array.length m.traced)
  in
  let ms = Loop.measurements results in
  let untraced = Array.concat (List.map (fun m -> m.untraced) ms) in
  let traced = Array.concat (List.map (fun m -> m.traced) ms) in
  let all = Array.append untraced traced in
  let lat = ok_ms all in
  let ok = Array.length lat and attempted = Array.length all in
  let wall = List.fold_left (fun acc m -> acc +. m.wall) 0.0 ms in
  let per_instance = List.map (fun m -> ok_ms (Array.append m.untraced m.traced)) ms in
  let notes =
    [
      Printf.sprintf
        "execute: 1 caller, %d engines x %d schedules on %d domains, %d instances, %d executions, %.2f s measured"
        (Array.length engines) env.schedules Inputs.execute_procs Loop.instances attempted wall;
      Printf.sprintf "  latency samples %d (exact order statistics)" ok;
      Loop.rates_note results
        ~ops:(fun m -> Array.length m.untraced + Array.length m.traced)
        ~wall:(fun m -> m.wall);
      Loop.p99_note per_instance;
    ]
  in
  let values =
    if not trace then
      [
        ("setup_s", Loop.median_setup results);
        ("throughput_ops", float_of_int ok /. wall);
        ("latency_p50_ms", Pstats.percentile lat 0.5);
        ("latency_p99_ms", Loop.instance_p99 per_instance);
        ("success_ratio", Pstats.ratio ok attempted);
        ("makespan_mean", env.makespan_mean);
        (* Each instance process's high-water mark over its window. *)
        ("peak_rss_mb", Pstats.median (Array.of_list (List.map (fun m -> m.rss_mb) ms)));
      ]
    else
      ("trace.overhead_ms", Pstats.median (ok_ms traced) -. Pstats.median (ok_ms untraced))
      :: engine_values all
  in
  {
    Report.correct = ok = attempted && attempted > 0;
    attempted;
    failed = attempted - ok;
    values;
    notes = (notes @ if trace then Report.self_time_notes spans else []);
    spans;
  }
