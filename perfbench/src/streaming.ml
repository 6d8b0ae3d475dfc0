(* stream-unique: 2 clients each stream fresh V ~ 1000 graphs to one
   [flb serve] over protocol v3, FLB at P = 8. A graph goes out in 4
   [Chunk.plan] batches with a poll after every batch. The op is one
   placed task, timed from the Add_tasks call that shipped it to the
   answer that placed it. Streams bypass the text codec and the cache and
   use FLB as a resumable run over a merged super-DAG, so this is the
   only measurement of [Scheduler_loop]. *)

open! Flb_taskgraph
module Wire = Flb_service.Wire
module Chunk = Flb_stream.Chunk
module Stream_loop = Flb_stream.Scheduler_loop
module Trace = Flb_obs.Trace

type env = { seed : int; daemon : Procs.t; conns : Conn.t array; structures : Inputs.structures }

let batches env i = Chunk.plan ~chunks:Inputs.stream_batches (Inputs.stream_graph env.structures ~seed:env.seed i)

(* The graph as the daemon knows it: tasks in stream order. *)
let graph_of_batches batches =
  let b = Taskgraph.Builder.create () in
  List.iter
    (fun { Chunk.comps; edges } ->
      Array.iter (fun comp -> ignore (Taskgraph.Builder.add_task b ~comp)) comps;
      Array.iter (fun (src, dst, comm) -> Taskgraph.Builder.add_edge b ~src ~dst ~comm) edges)
    batches;
  Taskgraph.Builder.build b

type stream = {
  index : int;
  tasks : int;
  placements : (int * int * float) array;
  latencies_s : float array;  (** one per placement received *)
  makespan : float;
  rounds : int;
  calls : (int * int) list;  (** request and response bytes of every call *)
  error : string option;
}

exception Stream_failed of string

let stream_one ~spans conn ~index batches =
  let tasks = List.fold_left (fun n b -> n + Array.length b.Chunk.comps) 0 batches in
  let added = Array.make tasks 0L in
  let placements = ref [] and latencies = ref [] and calls = ref [] in
  let call ~parent what msg =
    match Spans.with_span spans ~parent what (fun id -> Conn.call ~spans ~parent:id conn msg) with
    | Ok { Conn.response; request_bytes; response_bytes } -> (
      calls := (request_bytes, response_bytes) :: !calls;
      match response with
      | Wire.Placed { placements = placed; final; makespan; round; _ } ->
        let now = Spans.now_ns () in
        Array.iter
          (fun ((task, _, _) as pl) ->
            placements := pl :: !placements;
            if task >= 0 && task < tasks then
              latencies := (Int64.to_float (Int64.sub now added.(task)) *. 1e-9) :: !latencies)
          placed;
        (final, makespan, round)
      | Wire.Stream_opened _ -> raise (Stream_failed "unexpected Stream_opened")
      | Wire.Error { message; _ } -> raise (Stream_failed message)
      | Wire.Overloaded -> raise (Stream_failed "overloaded")
      | _ -> raise (Stream_failed "unexpected answer"))
    | Error msg -> raise (Stream_failed msg)
  in
  let result ?error ~makespan ~rounds () =
    {
      index;
      tasks;
      placements = Array.of_list (List.rev !placements);
      latencies_s = Array.of_list !latencies;
      makespan;
      rounds;
      calls = !calls;
      error;
    }
  in
  Spans.with_span spans "stream" @@ fun parent ->
  match
    match
      Conn.call conn (Wire.Open_stream { algo = Layers.algo; procs = Inputs.stream_procs; batch_tasks = 0 })
    with
    | Ok { Conn.response = Wire.Stream_opened { stream }; _ } ->
      let next = ref 0 in
      List.iter
        (fun { Chunk.comps; edges } ->
          let t0 = Spans.now_ns () in
          Array.iteri (fun i _ -> added.(!next + i) <- t0) comps;
          ignore (call ~parent "rpc.add_tasks" (Wire.Add_tasks { stream; comps }));
          next := !next + Array.length comps;
          if Array.length edges > 0 then
            ignore (call ~parent "rpc.add_edges" (Wire.Add_edges { stream; edges }));
          ignore (call ~parent "rpc.poll" (Wire.Poll_stream { stream })))
        batches;
      let final, makespan, rounds = call ~parent "rpc.seal" (Wire.Seal { stream }) in
      if not final then raise (Stream_failed "seal answer not final");
      (makespan, rounds)
    | Ok _ -> raise (Stream_failed "open: unexpected answer")
    | Error msg -> raise (Stream_failed msg)
  with
  | makespan, rounds -> result ~makespan ~rounds ()
  | exception Stream_failed error -> result ~error ~makespan:0.0 ~rounds:0 ()

let teardown env =
  Array.iter Conn.close env.conns;
  Procs.stop_all [ env.daemon ]

let setup ~flb ~seed () =
  let daemon = Procs.serve ~flb in
  try
    let structures = Inputs.structures ~tasks:Inputs.large_tasks in
    let conns = Array.init Loop.clients (fun _ -> Conn.connect ~port:daemon.Procs.port) in
    let env = { seed; daemon; conns; structures } in
    (* One warm-up stream per connection, on graphs no timed stream uses. *)
    Array.iteri
      (fun ci c ->
        let b = Chunk.plan ~chunks:Inputs.stream_batches (Inputs.graph structures ~seed Inputs.Warm ci) in
        match (stream_one ~spans:Spans.disabled c ~index:ci b).error with
        | None -> ()
        | Some e -> failwith ("warm-up stream: " ^ e))
      conns;
    env
  with e ->
    Procs.stop_all [ daemon ];
    raise e

let window env ~first ~seconds ~spans =
  let streams = Array.make Loop.clients [] in
  let op ~client ~index =
    let s = stream_one ~spans env.conns.(client) ~index (batches env index) in
    if s.error <> None then begin
      Conn.close env.conns.(client);
      try env.conns.(client) <- Conn.connect ~port:env.daemon.Procs.port with _ -> ()
    end;
    streams.(client) <- s :: streams.(client)
  in
  let wall = Loop.run ~first ~seconds op in
  (Array.concat (List.map Array.of_list (Array.to_list streams)), wall)

let check_all env streams =
  Loop.parallel_map
    (fun s ->
      match s.error with
      | Some e -> Error e
      | None ->
        Check.stream
          ~graph:(graph_of_batches (batches env s.index))
          ~procs:Inputs.stream_procs ~placements:s.placements ~makespan:s.makespan)
    streams

(* --- the traced run's layer figures --- *)

(* The span fields of the loop's own round spans, from its JSONL form. *)
let float_field line key =
  let k = Printf.sprintf "\"%s\":" key in
  let kl = String.length k in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = k then Some (i + kl)
    else find (i + 1)
  in
  Option.bind (find 0) (fun i ->
      let j = ref i in
      while !j < String.length line && not (List.mem line.[!j] [ ','; '}' ]) do
        incr j
      done;
      float_of_string_opt (String.sub line i (!j - i)))

(* Drive one stream through an in-process [Scheduler_loop] with the
   daemon's default configuration, one span per call; the loop's round
   spans become children of the call that ran them. *)
let replay_loop spans batches =
  let clock () = Int64.to_float (Spans.now_ns ()) *. 1e-9 in
  let tracer = Trace.create ~clock () in
  let epoch = clock () -. Trace.now tracer in
  let loop = Stream_loop.create ~tracer Stream_loop.default_config in
  Spans.with_span spans "replay" @@ fun root ->
  let call name f =
    Spans.with_span spans ~parent:root name (fun id ->
        let before = Trace.num_events tracer in
        let r = f () in
        let lines = String.split_on_char '\n' (Trace.to_jsonl tracer) in
        List.iteri
          (fun k line ->
            if k >= before then
              match (float_field line "ts", float_field line "dur") with
              | Some ts, Some dur ->
                let start_ns = Int64.of_float ((epoch +. ts) *. 1e9) in
                ignore
                  (Spans.add spans ~parent:id ~name:"stream.round" ~start_ns
                     ~end_ns:(Int64.add start_ns (Int64.of_float (dur *. 1e9))))
              | _ -> ())
          lines;
        r)
  in
  match Stream_loop.open_stream loop ~algo:Layers.algo ~procs:Inputs.stream_procs with
  | Error e -> failwith (Stream_loop.error_to_string e)
  | Ok stream ->
    let ok = function Ok _ -> () | Error e -> failwith (Stream_loop.error_to_string e) in
    List.iter
      (fun { Chunk.comps; edges } ->
        ok (call "stream.add_tasks" (fun () -> Stream_loop.add_tasks loop ~stream ~comps));
        if Array.length edges > 0 then
          ok (call "stream.add_edges" (fun () -> Stream_loop.add_edges loop ~stream ~edges));
        ok (call "stream.poll" (fun () -> Stream_loop.poll loop ~stream)))
      batches;
    ok (call "stream.seal" (fun () -> Stream_loop.seal loop ~stream))

let layer_values env ~spans ~traced ~all ~verdicts =
  let fig : Layers.figures = Hashtbl.create 16 in
  Array.iteri
    (fun k s ->
      if k < 4 then replay_loop spans (batches env s.index);
      if k < 6 then Layers.core ~one_shot:false spans fig (Inputs.stream_graph env.structures ~seed:env.seed s.index))
    traced;
  let self = Spans.self_us spans in
  let self_median name = match List.assoc_opt name self with Some a -> Pstats.median a | None -> 0.0 in
  let good = List.filteri (fun i _ -> Result.is_ok verdicts.(i)) (Array.to_list all) in
  let mean f = Pstats.mean (Array.of_list (List.map f good)) in
  let calls = List.concat_map (fun s -> s.calls) (Array.to_list all) in
  let bytes f = Pstats.median (Array.of_list (List.map (fun c -> float_of_int (f c)) calls)) in
  Layers.medians fig (Layers.core_figures ~one_shot:false)
  @ [
      ("wire.request_bytes", bytes fst);
      ("wire.response_bytes", bytes snd);
      ("wire.encode_us", self_median "wire.encode");
      ("wire.decode_us", self_median "wire.decode");
      ("stream.round_us", self_median "stream.round");
      ("stream.add_tasks_us", self_median "stream.add_tasks");
      ("stream.add_edges_us", self_median "stream.add_edges");
      ("stream.rounds_per_stream", mean (fun s -> float_of_int s.rounds));
      ("stream.tasks_per_round", mean (fun s -> float_of_int s.tasks /. float_of_int (max 1 s.rounds)));
    ]

type measured = { untraced : stream array; traced : stream array; wall : float; rss_mb : float }

let measure ~trace ~spans env ~first ~seconds =
  let untraced, traced, wall =
    if trace then
      let u, w1 = window env ~first ~seconds:(seconds /. 2.0) ~spans:Spans.disabled in
      let t, w2 = window env ~first:(first + Array.length u) ~seconds:(seconds /. 2.0) ~spans in
      (u, t, w1 +. w2)
    else
      let u, wall = window env ~first ~seconds ~spans:Spans.disabled in
      (u, [||], wall)
  in
  { untraced; traced; wall; rss_mb = Procs.peak_rss_mb env.daemon.Procs.pid }

let latencies_ms streams verdicts =
  Array.concat
    (List.concat
       (List.mapi
          (fun i s -> if Result.is_ok verdicts.(i) then [ Array.map (fun v -> v *. 1e3) s.latencies_s ] else [])
          (Array.to_list streams)))

let run ~flb ~seed ~seconds ~trace =
  let spans = Spans.create ~enabled:trace in
  let results, env =
    Loop.over_instances ~seconds ~setup:(setup ~flb ~seed) ~teardown ~measure:(measure ~trace ~spans)
      ~ops:(fun m -> Array.length m.untraced + Array.length m.traced)
  in
  let ms = Loop.measurements results in
  let untraced = Array.concat (List.map (fun m -> m.untraced) ms) in
  let traced = Array.concat (List.map (fun m -> m.traced) ms) in
  let all = Array.append untraced traced in
  let verdicts = check_all env all in
  let lat = latencies_ms all verdicts in
  let good = List.filteri (fun i _ -> Result.is_ok verdicts.(i)) (Array.to_list all) in
  let ok = List.fold_left (fun n s -> n + s.tasks) 0 good in
  let attempted = Array.fold_left (fun n s -> n + s.tasks) 0 all in
  let wall = List.fold_left (fun acc m -> acc +. m.wall) 0.0 ms in
  let ok_index = Hashtbl.create (Array.length all) in
  Array.iteri (fun i s -> if Result.is_ok verdicts.(i) then Hashtbl.replace ok_index s.index ()) all;
  let per_instance =
    List.map
      (fun m ->
        Array.concat
          (List.filter_map
             (fun s ->
               if Hashtbl.mem ok_index s.index then Some (Array.map (fun v -> v *. 1e3) s.latencies_s)
               else None)
             (Array.to_list (Array.append m.untraced m.traced))))
      ms
  in
  let failures =
    List.concat
      (List.mapi
         (fun i s ->
           match verdicts.(i) with
           | Error e -> [ Printf.sprintf "  failed stream %d: %s" s.index e ]
           | Ok () -> [])
         (Array.to_list all))
  in
  let notes =
    [
      Printf.sprintf
        "stream-unique: %d clients on %d connections, closed loop, %d instances, %d streams of %d batches, %.2f s measured"
        Loop.clients Loop.clients Loop.instances (Array.length all) Inputs.stream_batches wall;
      Printf.sprintf "  latency samples %d placed tasks (exact order statistics)" (Array.length lat);
      Loop.rates_note results
        ~ops:(fun m ->
          Array.fold_left (fun n s -> n + s.tasks) 0 (Array.append m.untraced m.traced))
        ~wall:(fun m -> m.wall);
      Loop.p99_note per_instance;
    ]
    @ List.filteri (fun i _ -> i < 5) failures
  in
  let values =
    if not trace then
      [
        ("setup_s", Loop.median_setup results);
        ("throughput_ops", float_of_int ok /. wall);
        ("latency_p50_ms", Pstats.percentile lat 0.5);
        ("latency_p99_ms", Loop.instance_p99 per_instance);
        ("success_ratio", Pstats.ratio ok attempted);
        ( "makespan_mean",
          (* A stream's makespan on the shared timeline minus its first
             start: the part of the timeline the stream itself spans. *)
          Pstats.mean
            (Array.of_list
               (List.map
                  (fun s ->
                    s.makespan
                    -. Array.fold_left (fun m (_, _, st) -> Float.min m st) Float.infinity s.placements)
                  good)) );
        ("peak_rss_mb", Pstats.median (Array.of_list (List.map (fun m -> m.rss_mb) ms)));
      ]
    else
      let n = Array.length untraced in
      ( "trace.overhead_ms",
        Pstats.median (latencies_ms traced (Array.sub verdicts n (Array.length traced)))
        -. Pstats.median (latencies_ms untraced (Array.sub verdicts 0 n)) )
      :: layer_values env ~spans ~traced ~all ~verdicts
  in
  {
    Report.correct = ok = attempted && attempted > 0;
    attempted;
    failed = attempted - ok;
    values;
    notes = (notes @ if trace then Report.self_time_notes spans else []);
    spans;
  }
