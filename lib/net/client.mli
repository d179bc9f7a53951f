(** Thin blocking client for the front-door protocol.

    One connection is one logical session.  [send]/[recv] are split so
    load generators can pipeline (open-loop) from separate sender and
    receiver threads; [call] is the synchronous convenience.  Not
    thread-safe beyond that split: at most one sender thread and one
    receiver thread. *)

type t

val connect : ?max_payload:int -> Server.address -> t
(** TCP connections set [TCP_NODELAY], so pipelined requests leave as
    they are sent.  @raise Unix.Unix_error when the server cannot be
    reached. *)

val close : t -> unit

val send : t -> Frame.t -> bool
(** Fire one request without waiting; [false] when the connection is
    gone. *)

val recv : t -> (Frame.t, Conn.read_error) result
(** Next response, in request order. *)

val call : t -> Frame.t -> (Frame.t, Conn.read_error) result

val hello : t -> (string, string) result
(** Handshake; returns the server banner. *)

val submit_datalog :
  t -> label:string -> ?partner:string -> string -> (Quantum.Qdb.commit_result, string) result
(** Submit a Datalog-text transaction and wait for the (post-fsync)
    verdict.  [Error] is a transport or protocol failure, not a
    rejection — rejections are [Ok (Rejected _)]. *)

val submit_sql :
  t -> label:string -> ?partner:string -> string -> (Quantum.Qdb.commit_result, string) result

val query : t -> string -> (string list, string) result
val ground : t -> int -> (int, string) result
val ground_all : t -> (int, string) result
val ping : t -> string -> (string, string) result
