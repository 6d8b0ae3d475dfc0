(* Output checks, run after the timed window.

   A served one-shot schedule must decode against its graph, validate,
   and carry the makespan of both the decoded schedule and a local FLB
   run on the same graph and P. A stream must place every task exactly
   once, and the schedule rebuilt from its placements must validate. *)

open! Flb_taskgraph
open! Flb_platform

let one_shot ~text ~procs ~schedule ~makespan =
  let m = Machine.clique ~num_procs:procs in
  match Serial.of_string text with
  | exception Serial.Parse_error { message; _ } -> Error ("graph: " ^ message)
  | g -> (
    match Schedule_io.of_string g m schedule with
    | exception Schedule_io.Parse_error { message; _ } -> Error ("schedule: " ^ message)
    | s -> (
      match Schedule.validate s with
      | Error (e :: _) -> Error ("invalid schedule: " ^ e)
      | Error [] -> Error "invalid schedule"
      | Ok () ->
        let decoded = Schedule.makespan s in
        let local = Schedule.makespan (Layers.flb.run g m) in
        if decoded <> makespan then
          Error (Printf.sprintf "makespan %.17g, decoded schedule %.17g" makespan decoded)
        else if local <> makespan then
          Error (Printf.sprintf "makespan %.17g, local FLB %.17g" makespan local)
        else Ok ()))

(* [placements] as received, [(task, proc, start)] in stream ids; the
   graph is the one the stream shipped, in stream order; [makespan] the
   one the final answer reported. *)
let stream ~graph ~procs ~placements ~makespan =
  let n = Taskgraph.num_tasks graph in
  let proc = Array.make n (-1) in
  let start = Array.make n 0.0 in
  let dup = ref None in
  Array.iter
    (fun (t, p, s) ->
      if t < 0 || t >= n then dup := Some (Printf.sprintf "task %d out of range" t)
      else if proc.(t) >= 0 then dup := Some (Printf.sprintf "task %d placed twice" t)
      else begin
        proc.(t) <- p;
        start.(t) <- s
      end)
    placements;
  match !dup with
  | Some e -> Error e
  | None -> (
    match Array.find_index (fun p -> p < 0) proc with
    | Some t -> Error (Printf.sprintf "task %d never placed" t)
    | None -> (
      let s = Schedule.create graph (Machine.clique ~num_procs:procs) in
      (* Stream order is topological, so every predecessor is assigned first. *)
      match
        for t = 0 to n - 1 do
          Schedule.assign s t ~proc:proc.(t) ~start:start.(t)
        done
      with
      | exception Invalid_argument e -> Error e
      | () -> (
        match Schedule.validate s with
        | Ok () when Schedule.makespan s = makespan -> Ok ()
        | Ok () ->
          Error
            (Printf.sprintf "makespan %.17g, rebuilt schedule %.17g" makespan
               (Schedule.makespan s))
        | Error (e :: _) -> Error ("invalid stream schedule: " ^ e)
        | Error [] -> Error "invalid stream schedule")))
