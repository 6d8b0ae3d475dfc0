(* Layer replay of the traced run.

   The daemon and the router run in processes of their own, so the
   benchmark cannot see inside them. Instead it calls each layer's public
   functions in its own process, on the same inputs the workload sent,
   in the order the request path calls them, and records one span per
   call. The spans' self times are the per-layer figures. *)

open! Flb_taskgraph
open! Flb_platform
module Wire = Flb_service.Wire
module Cache = Flb_service.Cache

let algo = "FLB"

let flb = Option.get (Flb_experiments.Registry.find algo)

let core_procs = [ 8; 64; 512 ]

(* Samples of one layer figure, keyed by metric name. *)
type figures = (string, float list) Hashtbl.t

let note (fig : figures) name v =
  Hashtbl.replace fig name (v :: Option.value ~default:[] (Hashtbl.find_opt fig name))

let median_of (fig : figures) name =
  match Hashtbl.find_opt fig name with
  | Some l -> Pstats.median (Array.of_list l)
  | None -> 0.0

let timed_us spans ~parent name f =
  let t0 = Spans.now_ns () in
  let v = Spans.with_span spans ~parent name (fun _ -> f ()) in
  (v, Spans.elapsed_s t0 *. 1e6)

(* What the daemon does for one Schedule request outside the stages its
   response breakdown already times: decode the frame, parse the graph,
   compute the cache key (timed again by the breakdown's cache stage,
   so not attributed twice), encode the answer. Returns the microseconds
   not covered by the breakdown. *)
let daemon_path spans ~parent fig ~text ~procs ~response =
  let request = Wire.encode_request (Wire.Schedule { graph = text; algo; procs }) in
  let _, dec = timed_us spans ~parent "wire.decode" (fun () -> Wire.decode_request request) in
  let g, parse = timed_us spans ~parent "serial.parse" (fun () -> Serial.of_string text) in
  let _, key =
    timed_us spans ~parent "cache.key" (fun () -> Cache.key ~dead:[] ~graph:text ~algo ~procs)
  in
  let _, enc = timed_us spans ~parent "wire.encode" (fun () -> Wire.encode_response response) in
  let n = float_of_int (Taskgraph.num_tasks g) in
  note fig "serial.parse_us" parse;
  note fig "serial.parse_ns_per_task" (parse *. 1e3 /. n);
  note fig "cache.key_us" key;
  dec +. parse +. enc

(* What the router adds in front of the daemon: decode the client frame,
   digest the graph for its shard key, re-encode the request for the
   backend, then decode the backend's answer and re-encode it for the
   client. *)
let router_path spans ~parent fig ~text ~procs ~response =
  let request = Wire.encode_request (Wire.Schedule { graph = text; algo; procs }) in
  let answer = Wire.encode_response response in
  let _, d1 = timed_us spans ~parent "wire.decode" (fun () -> Wire.decode_request request) in
  let t0 = Spans.now_ns () in
  Spans.with_span spans ~parent "router.key" (fun parent ->
      let g, _ = timed_us spans ~parent "serial.parse" (fun () -> Serial.of_string text) in
      let digest, digest_us = timed_us spans ~parent "cache.digest" (fun () -> Cache.digest g) in
      note fig "cache.digest_us" digest_us;
      ignore (Flb_router.Router.shard_key ~digest ~algo ~procs));
  let key = Spans.elapsed_s t0 *. 1e6 in
  let _, e1 =
    timed_us spans ~parent "wire.encode" (fun () ->
        Wire.encode_request (Wire.Schedule { graph = text; algo; procs }))
  in
  let _, d2 = timed_us spans ~parent "wire.decode" (fun () -> Wire.decode_response answer) in
  let _, e2 = timed_us spans ~parent "wire.encode" (fun () -> Wire.encode_response response) in
  note fig "router.key_us" key;
  d1 +. key +. e1 +. d2 +. e2

(* Scheduler core on one graph at each P the service is measured at:
   FLB itself and, for one-shot requests ([one_shot]), the MCP schedule
   length the daemon computes as the NSL reference and the schedule text
   codec. Allocation is the least of three runs, since an OCaml 5
   allocation count sporadically includes a runtime-internal lump. *)
let core ~one_shot spans fig g =
  let n = float_of_int (Taskgraph.num_tasks g) in
  List.iter
    (fun p ->
      let m = Machine.clique ~num_procs:p in
      Spans.with_span spans "core" @@ fun root ->
      let s, us = timed_us spans ~parent:root "flb.run" (fun () -> flb.run g m) in
      note fig (Printf.sprintf "flb.ns_per_task.p%d" p) (us *. 1e3 /. n);
      let least = ref Float.infinity in
      for _ = 1 to 3 do
        let before = Gc.allocated_bytes () in
        ignore (flb.run g m);
        least := Float.min !least (Gc.allocated_bytes () -. before)
      done;
      note fig (Printf.sprintf "flb.bytes_per_task.p%d" p) (!least /. n);
      if one_shot then begin
      let _, mcp_us =
        timed_us spans ~parent:root "nsl_ref" (fun () -> Flb_schedulers.Mcp.schedule_length g m)
      in
      note fig (Printf.sprintf "nsl_ref.ns_per_task.p%d" p) (mcp_us *. 1e3 /. n);
      let text, enc =
        timed_us spans ~parent:root "schedule_io.encode" (fun () -> Schedule_io.to_string s)
      in
      let _, dec =
        timed_us spans ~parent:root "schedule_io.decode" (fun () -> Schedule_io.of_string g m text)
      in
      note fig "schedule_io.encode_us" enc;
      note fig "schedule_io.decode_us" dec;
      note fig "schedule_io.bytes" (float_of_int (String.length text))
      end)
    core_procs

(* The figures each part of the replay notes. *)
let daemon_figures = [ "serial.parse_us"; "serial.parse_ns_per_task"; "cache.key_us" ]

let router_figures = [ "cache.digest_us"; "router.key_us" ]

let core_figures ~one_shot =
  List.concat_map
    (fun p ->
      [ Printf.sprintf "flb.ns_per_task.p%d" p; Printf.sprintf "flb.bytes_per_task.p%d" p ]
      @ if one_shot then [ Printf.sprintf "nsl_ref.ns_per_task.p%d" p ] else [])
    core_procs
  @ if one_shot then [ "schedule_io.encode_us"; "schedule_io.decode_us"; "schedule_io.bytes" ] else []

let medians fig names = List.map (fun name -> (name, median_of fig name)) names
