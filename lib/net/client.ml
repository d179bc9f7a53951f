(* Blocking protocol client over one framed connection. *)

module Qdb = Quantum.Qdb

type t = { conn : Conn.t }

let connect ?max_payload address =
  let fd =
    match (address : Server.address) with
    | Server.Tcp (host, port) ->
      let addr = Conn.resolve host in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         (* A pipelined request must leave when it is sent, not wait
            behind the ack of the one before it (Nagle). *)
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         Unix.connect fd (Unix.ADDR_INET (addr, port))
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
    | Server.Unix_sock path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
  in
  { conn = Conn.of_fd ?max_payload fd }

let close t = Conn.close t.conn
let send t frame = Conn.write_frame t.conn frame
let recv t = Conn.read_frame t.conn

let call t frame =
  if send t frame then recv t else Error Conn.Closed

let transport_error = function
  | Conn.Closed -> "connection closed"
  | Conn.Protocol msg -> "protocol error: " ^ msg

let hello t =
  match call t (Frame.Hello "client") with
  | Ok (Frame.Hello_ok banner) -> Ok banner
  | Ok (Frame.Error_msg msg) -> Error msg
  | Ok other -> Error ("unexpected response: " ^ Frame.to_string other)
  | Error e -> Error (transport_error e)

let verdict = function
  | Ok (Frame.Committed id) -> Ok (Qdb.Committed id)
  | Ok (Frame.Rejected reason) -> Ok (Qdb.Rejected reason)
  | Ok (Frame.Overloaded reason) -> Ok (Qdb.Overloaded reason)
  | Ok (Frame.Error_msg msg) -> Error msg
  | Ok other -> Error ("unexpected response: " ^ Frame.to_string other)
  | Error e -> Error (transport_error e)

let submit_datalog t ~label ?partner text =
  verdict (call t (Frame.Submit_datalog { Frame.label; partner; text }))

let submit_sql t ~label ?partner text =
  verdict (call t (Frame.Submit_sql { Frame.label; partner; text }))

let query t text =
  match call t (Frame.Query text) with
  | Ok (Frame.Rows rows) -> Ok rows
  | Ok (Frame.Error_msg msg) | Ok (Frame.Overloaded msg) -> Error msg
  | Ok other -> Error ("unexpected response: " ^ Frame.to_string other)
  | Error e -> Error (transport_error e)

let grounded = function
  | Ok (Frame.Grounded n) -> Ok n
  | Ok (Frame.Error_msg msg) | Ok (Frame.Overloaded msg) -> Error msg
  | Ok other -> Error ("unexpected response: " ^ Frame.to_string other)
  | Error e -> Error (transport_error e)

let ground t id = grounded (call t (Frame.Ground id))
let ground_all t = grounded (call t Frame.Ground_all)

let ping t payload =
  match call t (Frame.Ping payload) with
  | Ok (Frame.Pong p) -> Ok p
  | Ok (Frame.Error_msg msg) -> Error msg
  | Ok other -> Error ("unexpected response: " ^ Frame.to_string other)
  | Error e -> Error (transport_error e)
