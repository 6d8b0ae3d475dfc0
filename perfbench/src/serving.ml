(* The one-shot serving workloads: Schedule requests to one [flb serve]
   process, directly or through one [flb route] process in front of two.

   - repeat-direct: the 6 small E4 graphs over and over. After the
     warm-up every request is a cache hit, so the codec, the framing and
     the cache lookup do the work and the scheduler does none.
   - unique-direct: a graph the daemon has never seen on every request
     (P cycling over 8, 64, 512), so the cache never hits and the
     scheduler, the NSL reference, the schedule codec and the pool do
     the work.
   - repeat-routed: the repeat-direct mix through the router, the only
     workload with a router hop. *)

open! Flb_taskgraph
module Wire = Flb_service.Wire

type kind = Repeat_direct | Unique_direct | Repeat_routed

type env = {
  kind : kind;
  seed : int;
  daemons : Procs.t list;
  router : Procs.t option;
  entry : int;  (* the port clients talk to *)
  conns : Conn.t array;
  repeat : Inputs.request array;
  unique : Inputs.unique;
}

let request env i =
  match env.kind with
  | Unique_direct -> Inputs.unique_request env.unique ~seed:env.seed i
  | Repeat_direct | Repeat_routed -> env.repeat.(i mod Array.length env.repeat)

(* The inputs a check or a replay has to rebuild: one per repeated graph,
   one per fresh request. *)
let input_id env i =
  match env.kind with Unique_direct -> i | Repeat_direct | Repeat_routed -> i mod Array.length env.repeat

let schedule_msg (r : Inputs.request) =
  Wire.Schedule { graph = r.Inputs.text; algo = Layers.algo; procs = r.Inputs.procs }

let served_or_fail what = function
  | Ok { Conn.response = Wire.Scheduled _; _ } -> ()
  | Ok _ -> failwith (what ^ ": the service did not answer with a schedule")
  | Error msg -> failwith (what ^ ": " ^ msg)

let processes env = Option.to_list env.router @ env.daemons

let teardown env =
  Array.iter Conn.close env.conns;
  Procs.stop_all (processes env)

let setup ~flb ~seed kind () =
  let started = ref [] in
  let start p =
    started := p :: !started;
    p
  in
  try
    let daemons =
      List.init (if kind = Repeat_routed then 2 else 1) (fun _ -> start (Procs.serve ~flb))
    in
    let router =
      if kind = Repeat_routed then Some (start (Procs.route ~flb ~backends:daemons)) else None
    in
    let entry = match router with Some r -> r.Procs.port | None -> (List.hd daemons).Procs.port in
    let repeat = if kind = Unique_direct then [||] else Inputs.repeat_requests ~seed in
    let unique =
      if kind = Unique_direct then
        Inputs.unique_cells (Inputs.structures ~tasks:Inputs.large_tasks) ~seed
      else { Inputs.tasks = [||]; edges = [||] }
    in
    let conns = Array.init Loop.clients (fun _ -> Conn.connect ~port:entry) in
    let env = { kind; seed; daemons; router; entry; conns; repeat; unique } in
    (match kind with
    | Repeat_direct ->
      Array.iter (fun c -> Array.iter (fun r -> served_or_fail "warm-up" (Conn.call c (schedule_msg r))) repeat) conns
    | Repeat_routed ->
      (* Warm both replicas directly: once a shard is hot the router
         sends it to the less loaded replica, which must not be cold. *)
      List.iter
        (fun d ->
          Conn.with_conn ~port:d.Procs.port (fun c ->
              Array.iter (fun r -> served_or_fail "warm-up" (Conn.call c (schedule_msg r))) repeat))
        daemons;
      Array.iter
        (fun c ->
          for _ = 1 to 2 do
            Array.iter (fun r -> served_or_fail "warm-up" (Conn.call c (schedule_msg r))) repeat
          done)
        conns
    | Unique_direct ->
      (* One warm-up request per P on every connection. *)
      let cells = Array.length unique.Inputs.tasks in
      Array.iteri
        (fun ci c ->
          Array.iteri
            (fun k _ ->
              let r = Inputs.unique_request unique ~seed ~purpose:Inputs.Warm ((k * cells) + ci) in
              served_or_fail "warm-up" (Conn.call c (schedule_msg r)))
            Inputs.unique_procs)
        conns);
    env
  with e ->
    Procs.stop_all !started;
    raise e

(* --- the timed window --- *)

type served = {
  schedule : string;
  makespan : float;
  cache_hit : bool;
  breakdown : Wire.breakdown;
  speedup : float;
  nsl : float;
}

type outcome = Served of served | Overloaded
  | Failed of string

type sample = {
  index : int;
  latency_s : float;
  op_span : int;
  outcome : outcome;
  request_bytes : int;
  response_bytes : int;
}

(* Repeated requests get byte-identical schedules back; keeping one
   copy per distinct answer holds a run's samples in little memory. *)
let interned table id schedule =
  let seen = Option.value ~default:[] (Hashtbl.find_opt table id) in
  match List.find_opt (String.equal schedule) seen with
  | Some s -> s
  | None ->
    Hashtbl.replace table id (schedule :: seen);
    schedule

let window env ~first ~seconds ~spans =
  let samples = Array.make Loop.clients [] in
  let tables = Array.init Loop.clients (fun _ -> Hashtbl.create 8) in
  let op ~client ~index =
    let msg = schedule_msg (request env index) in
    let t0 = Spans.now_ns () in
    let op_span = ref 0 in
    let reply =
      Spans.with_span spans "op" (fun id ->
          op_span := id;
          Conn.call ~spans ~parent:id env.conns.(client) msg)
    in
    let latency_s = Spans.elapsed_s t0 in
    let outcome, request_bytes, response_bytes =
      match reply with
      | Ok { Conn.response; request_bytes; response_bytes } ->
        let outcome =
          match response with
          | Wire.Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown } ->
            let schedule =
              if env.kind = Unique_direct then schedule
              else interned tables.(client) (input_id env index) schedule
            in
            Served { schedule; makespan; cache_hit; breakdown; speedup; nsl }
          | Wire.Overloaded -> Overloaded
          | Wire.Error { message; _ } -> Failed message
          | _ -> Failed "unexpected answer"
        in
        (outcome, request_bytes, response_bytes)
      | Error msg ->
        (* The connection is unusable after a transport error. *)
        Conn.close env.conns.(client);
        (try env.conns.(client) <- Conn.connect ~port:env.entry with _ -> ());
        (Failed msg, 0, 0)
    in
    samples.(client) <-
      { index; latency_s; op_span = !op_span; outcome; request_bytes; response_bytes }
      :: samples.(client)
  in
  let wall = Loop.run ~first ~seconds op in
  (Array.concat (List.map Array.of_list (Array.to_list samples)), wall)

(* --- daemon counters --- *)

let counter text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> Option.value ~default:acc (int_of_string_opt v)
      | _ -> acc)
    0 (String.split_on_char '\n' text)

(* Cache hits, misses and evictions summed over the daemons. *)
let cache_counters env =
  List.fold_left
    (fun (h, m, e) d ->
      let text =
        Conn.with_conn ~port:d.Procs.port (fun c ->
            match Conn.call c Wire.Get_metrics with
            | Ok { Conn.response = Wire.Metrics_text t; _ } -> t
            | _ -> failwith "metrics: unexpected answer")
      in
      ( h + counter text "cache_hits_total",
        m + counter text "cache_misses_total",
        e + counter text "cache_evictions_total" ))
    (0, 0, 0) env.daemons

(* --- output checks --- *)

(* Each distinct (input, answer) pair is checked once: the checks are
   deterministic, and repeated requests get byte-identical answers. *)
let check_all env samples =
  let distinct = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      match s.outcome with
      | Served { schedule; makespan; _ } ->
        let key = (input_id env s.index, makespan, schedule) in
        if not (Hashtbl.mem distinct key) then Hashtbl.add distinct key s.index
      | Overloaded | Failed _ -> ())
    samples;
  let keys = Array.of_seq (Hashtbl.to_seq distinct) in
  let verdicts =
    Loop.parallel_map
      (fun ((_, makespan, schedule), index) ->
        let r = request env index in
        Check.one_shot ~text:r.Inputs.text ~procs:r.Inputs.procs ~schedule ~makespan)
      keys
  in
  let table = Hashtbl.create 64 in
  Array.iteri (fun i (key, _) -> Hashtbl.replace table key verdicts.(i)) keys;
  Array.map
    (fun s ->
      match s.outcome with
      | Served { schedule; makespan; _ } ->
        Hashtbl.find table (input_id env s.index, makespan, schedule)
      | Overloaded -> Error "overloaded"
      | Failed msg -> Error msg)
    samples

(* --- metrics --- *)

let us_of_s a = Array.map (fun v -> v *. 1e6) a

let served_field f samples =
  Array.of_list
    (List.filter_map
       (fun s -> match s.outcome with Served r -> f r | Overloaded | Failed _ -> None)
       (Array.to_list samples))

(* Mean makespan over a fixed set of inputs, so that it depends on the
   seed only: the 6 repeated graphs, or the first four full cycles of
   fresh requests (all served within the first instance's window). *)
let makespan_mean env samples verdicts =
  let by_input = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      match (s.outcome, verdicts.(i)) with
      | Served { makespan; _ }, Ok () ->
        let id = input_id env s.index in
        if env.kind <> Unique_direct || id < 72 then Hashtbl.replace by_input id makespan
      | _ -> ())
    samples;
  (* Summed in input order, so the figure is the same to the last bit. *)
  Pstats.mean
    (Array.of_list (List.map snd (List.sort compare (List.of_seq (Hashtbl.to_seq by_input)))))

let failure_notes samples verdicts =
  let shown = ref 0 in
  List.concat
    (List.mapi
       (fun i v ->
         match v with
         | Error msg when !shown < 5 ->
           incr shown;
           [ Printf.sprintf "  failed op %d: %s" samples.(i).index msg ]
         | _ -> [])
       (Array.to_list verdicts))

let kind_name = function
  | Repeat_direct -> "repeat-direct"
  | Unique_direct -> "unique-direct"
  | Repeat_routed -> "repeat-routed"

(* --- the traced run's layer figures --- *)

let replay_cap = 48

let layer_values env ~spans ~traced ~all =
  let fig : Layers.figures = Hashtbl.create 32 in
  (* Distinct inputs of the traced ops, in order of first appearance. *)
  let inputs = ref [] in
  Array.iter
    (fun s ->
      let id = input_id env s.index in
      if List.length !inputs < replay_cap && not (List.mem_assoc id !inputs) then
        match s.outcome with
        | Served r -> inputs := (id, (s.index, r)) :: !inputs
        | Overloaded | Failed _ -> ())
    traced;
  let inputs = List.rev !inputs in
  let reps = max 1 (30 / max 1 (List.length inputs)) in
  let attributed = Hashtbl.create 64 in
  List.iter
    (fun (id, (index, { schedule; makespan; speedup; nsl; cache_hit; breakdown })) ->
      let req = request env index in
      let response = Wire.Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown } in
      let runs =
        Array.init reps (fun _ ->
            Spans.with_span spans "replay" (fun parent ->
                let text = req.Inputs.text and procs = req.Inputs.procs in
                let d = Layers.daemon_path spans ~parent fig ~text ~procs ~response in
                if env.kind = Repeat_routed then
                  d +. Layers.router_path spans ~parent fig ~text ~procs ~response
                else d))
      in
      Hashtbl.replace attributed id (Pstats.median runs))
    inputs;
  if env.kind = Unique_direct then
    List.iteri
      (fun k (_, (index, _)) ->
        if k < 6 then Layers.core ~one_shot:true spans fig (Serial.of_string (request env index).Inputs.text))
      inputs;
  (* Client-side codec time of each traced op, from its own spans. *)
  let client_us = Hashtbl.create 1024 in
  List.iter
    (fun (sp : Spans.span) ->
      if sp.Spans.name = "wire.encode" || sp.Spans.name = "wire.decode" then
        Hashtbl.replace client_us sp.Spans.parent
          ((Spans.dur_ns sp /. 1e3)
          +. Option.value ~default:0.0 (Hashtbl.find_opt client_us sp.Spans.parent)))
    (Spans.spans spans);
  let lat = ref 0.0 and attr = ref 0.0 in
  Array.iter
    (fun s ->
      match (s.outcome, Hashtbl.find_opt attributed (input_id env s.index)) with
      | Served { breakdown = b; _ }, Some replayed ->
        lat := !lat +. (s.latency_s *. 1e6);
        attr :=
          !attr +. replayed
          +. Option.value ~default:0.0 (Hashtbl.find_opt client_us s.op_span)
          +. ((b.Wire.cache_s +. b.Wire.queue_wait_s +. b.Wire.exec_s) *. 1e6)
      | _ -> ())
    traced;
  let unattributed = if !lat > 0.0 then (!lat -. !attr) /. !lat else 0.0 in
  let self = Spans.self_us spans in
  let self_median name =
    match List.assoc_opt name self with Some a -> Pstats.median a | None -> 0.0
  in
  let misses =
    Array.of_list
      (List.filter
         (fun s -> match s.outcome with Served { cache_hit = false; _ } -> true | _ -> false)
         (Array.to_list all))
  in
  let queue_wait = us_of_s (served_field (fun r -> Some r.breakdown.Wire.queue_wait_s) misses) in
  let served = served_field (fun r -> Some r.cache_hit) all in
  let hits = Array.fold_left (fun n h -> if h then n + 1 else n) 0 served in
  let overloaded = Array.fold_left (fun n s -> if s.outcome = Overloaded then n + 1 else n) 0 all in
  let bytes f = Pstats.median (Array.map (fun s -> float_of_int (f s)) all) in
  let crossed =
    match env.kind with
    | Repeat_direct -> []
    | Unique_direct -> Layers.core_figures ~one_shot:true
    | Repeat_routed -> Layers.router_figures
  in
  Layers.medians fig (Layers.daemon_figures @ crossed)
  @ [
      ("wire.request_bytes", bytes (fun s -> s.request_bytes));
      ("wire.response_bytes", bytes (fun s -> s.response_bytes));
      ("wire.encode_us", self_median "wire.encode");
      ("wire.decode_us", self_median "wire.decode");
      ("pool.queue_wait_p50_us", Pstats.percentile queue_wait 0.5);
      ("pool.queue_wait_p99_us", Pstats.percentile queue_wait 0.99);
      ("pool.overloaded_ratio", Pstats.ratio overloaded (Array.length all));
      ( "server.cache_stage_us",
        Pstats.median (us_of_s (served_field (fun r -> Some r.breakdown.Wire.cache_s) all)) );
      ( "server.exec_stage_us",
        Pstats.median (us_of_s (served_field (fun r -> Some r.breakdown.Wire.exec_s) misses)) );
      ( (if env.kind = Repeat_routed then "router.unattributed_ratio"
         else "server.unattributed_ratio"),
        unattributed );
      ( "router.backend_hit_ratio",
        if env.kind = Repeat_routed then Pstats.ratio hits (Array.length served) else 0.0 );
    ]

(* --- the run --- *)

(* One instance's measurement: the untraced and traced ops, the wall
   time, the daemons' cache counter deltas and the processes' peak RSS. *)
type measured = {
  untraced : sample array;
  traced : sample array;
  wall : float;
  hits : int;
  misses : int;
  evictions : int;
  rss_mb : float;
}

let measure ~trace ~spans env ~first ~seconds =
  let h0, m0, e0 = cache_counters env in
  let untraced, traced, wall =
    if trace then
      (* Two halves, the second traced; indices continue, so the traced
         half sends inputs the untraced one did not. *)
      let u, w1 = window env ~first ~seconds:(seconds /. 2.0) ~spans:Spans.disabled in
      let t, w2 = window env ~first:(first + Array.length u) ~seconds:(seconds /. 2.0) ~spans in
      (u, t, w1 +. w2)
    else
      let u, wall = window env ~first ~seconds ~spans:Spans.disabled in
      (u, [||], wall)
  in
  let h1, m1, e1 = cache_counters env in
  {
    untraced;
    traced;
    wall;
    hits = h1 - h0;
    misses = m1 - m0;
    evictions = e1 - e0;
    rss_mb = Pstats.sum (Array.of_list (List.map (fun p -> Procs.peak_rss_mb p.Procs.pid) (processes env)));
  }

let ok_latencies_ms samples verdicts =
  Array.of_list
    (List.concat
       (List.mapi
          (fun i s -> if Result.is_ok verdicts.(i) then [ s.latency_s *. 1e3 ] else [])
          (Array.to_list samples)))

let run ~flb ~seed ~seconds ~trace kind =
  let spans = Spans.create ~enabled:trace in
  let results, env =
    Loop.over_instances ~seconds ~setup:(setup ~flb ~seed kind) ~teardown
      ~measure:(measure ~trace ~spans)
      ~ops:(fun m -> Array.length m.untraced + Array.length m.traced)
  in
  let ms = Loop.measurements results in
  let total f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  let untraced = Array.concat (List.map (fun m -> m.untraced) ms) in
  let traced = Array.concat (List.map (fun m -> m.traced) ms) in
  let all = Array.append untraced traced in
  let verdicts = check_all env all in
  let lat = ok_latencies_ms all verdicts in
  let ok = Array.length lat and attempted = Array.length all in
  let hits = total (fun m -> m.hits) and misses = total (fun m -> m.misses) in
  let wall = List.fold_left (fun acc m -> acc +. m.wall) 0.0 ms in
  let ok_index = Hashtbl.create (Array.length all) in
  Array.iteri (fun i s -> if Result.is_ok verdicts.(i) then Hashtbl.replace ok_index s.index ()) all;
  let per_instance =
    List.map
      (fun m ->
        Array.of_list
          (List.filter_map
             (fun s -> if Hashtbl.mem ok_index s.index then Some (s.latency_s *. 1e3) else None)
             (Array.to_list (Array.append m.untraced m.traced))))
      ms
  in
  let per_procs =
    if kind <> Unique_direct then []
    else
      List.map
        (fun p ->
          let at_p = Array.map (fun s -> Inputs.unique_procs_of env.unique s.index = p) all in
          let l =
            ok_latencies_ms all
              (Array.mapi (fun i v -> if at_p.(i) then v else Error "other P") verdicts)
          in
          Printf.sprintf "  P=%d: %d requests, p50 %.3f ms, p99 %.3f ms" p (Array.length l)
            (Pstats.percentile l 0.5) (Pstats.percentile l 0.99))
        (Array.to_list Inputs.unique_procs)
  in
  let notes =
    [
      Printf.sprintf "%s: %d clients on %d connections, closed loop, %d instances, %.2f s measured"
        (kind_name kind) Loop.clients Loop.clients Loop.instances wall;
      Printf.sprintf "  latency samples %d (exact order statistics)" ok;
      Printf.sprintf "  daemon cache: %d hits, %d misses, %d evictions in the windows" hits misses
        (total (fun m -> m.evictions));
    ]
    @ Loop.rates_note results ~ops:(fun m -> Array.length m.untraced + Array.length m.traced) ~wall:(fun m -> m.wall)
      :: Loop.p99_note per_instance
      :: per_procs
    @ failure_notes all verdicts
  in
  let values =
    if not trace then
      [
        ("setup_s", Loop.median_setup results);
        ("throughput_ops", float_of_int ok /. wall);
        ("latency_p50_ms", Pstats.percentile lat 0.5);
        ("latency_p99_ms", Loop.instance_p99 per_instance);
        ("success_ratio", Pstats.ratio ok attempted);
        ("makespan_mean", makespan_mean env all verdicts);
        ("peak_rss_mb", Pstats.median (Array.of_list (List.map (fun m -> m.rss_mb) ms)));
      ]
    else
      let n = Array.length untraced in
      let traced_verdicts = Array.sub verdicts n (Array.length traced) in
      ( "trace.overhead_ms",
        Pstats.median (ok_latencies_ms traced traced_verdicts)
        -. Pstats.median (ok_latencies_ms untraced (Array.sub verdicts 0 n)) )
      :: ("cache.hit_ratio", Pstats.ratio hits (hits + misses))
      :: ("cache.evictions", float_of_int (total (fun m -> m.evictions)))
      :: layer_values env ~spans ~traced ~all
  in
  {
    Report.correct = ok = attempted && attempted > 0;
    attempted;
    failed = attempted - ok;
    values;
    notes = (notes @ if trace then Report.self_time_notes spans else []);
    spans;
  }
