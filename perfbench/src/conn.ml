(* One client connection speaking the daemon's framed wire protocol.

   [call] does what [Flb_service.Client.call] does — encode, write one
   frame, read one frame, decode — but as separate steps, so the traced
   run can put the codec and the round trip in spans of their own. *)

module Wire = Flb_service.Wire

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* A peer that stops answering becomes a transport error, not a hang. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let close t =
  close_out_noerr t.oc;
  close_in_noerr t.ic

type reply = { response : Wire.response; request_bytes : int; response_bytes : int }

let call ?(spans = Spans.disabled) ?(parent = 0) t request =
  let payload =
    Spans.with_span spans ~parent "wire.encode" (fun _ -> Wire.encode_request request)
  in
  match
    Spans.with_span spans ~parent "io" (fun _ ->
        Wire.write_frame t.oc payload;
        Wire.read_frame t.ic)
  with
  | exception e -> Error (Printexc.to_string e)
  | Error e -> Error (Wire.read_error_to_string e)
  | Ok answer -> (
    match
      Spans.with_span spans ~parent "wire.decode" (fun _ -> Wire.decode_response answer)
    with
    | Ok (_, response) ->
      Ok
        {
          response;
          request_bytes = String.length payload;
          response_bytes = String.length answer;
        }
    | Error msg -> Error msg)

let with_conn ~port f =
  let c = connect ~port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)
