(** Framed IO over a socket: one {!Frame.t} at a time in either
    direction, with the read buffering and error taxonomy the protocol
    needs.  {!Inbox} is the frame reassembly both the blocking
    {!read_frame} and the server's event loop use.  Reads are
    single-consumer; writes are mutex-serialized so an acker and a
    control path may share the connection. *)

(** Frame reassembly: bytes go in as the socket yields them, complete
    frames come out.  Nothing here blocks; the buffer never grows past
    the frame size limit plus header, so a slow-loris peer cannot
    balloon memory. *)
module Inbox : sig
  type t

  val create : ?max_payload:int -> unit -> t
  (** [max_payload] bounds incoming frames (default
      {!Frame.default_max_payload}). *)

  val pop : t -> (Frame.t option, string) result
  (** The next complete frame, [Ok None] when the buffered bytes are
      only a prefix of one, or [Error] on a protocol violation (the
      stream cannot resynchronise). *)

  val fill : t -> (Bytes.t -> int -> int -> int) -> int
  (** [fill t read] calls [read buf off len] once to append up to [len]
      bytes at [buf.[off]] and returns what it returned (0 is end of
      stream; exceptions pass through).  Call it only after {!pop}
      returned [Ok None]: that guarantees free space. *)

  val buffered : t -> int
  (** Bytes held that are not yet part of a popped frame. *)
end

type t

type read_error =
  | Closed  (** orderly EOF (or the peer vanished) between frames *)
  | Protocol of string
      (** a {!Frame.Malformed} payload, or EOF in mid-frame — the stream
          cannot resynchronise *)

val ignore_sigpipe : unit -> unit
(** Make writes to a vanished peer fail with [EPIPE] instead of killing
    the process.  Idempotent; {!of_fd} calls it. *)

val resolve : string -> Unix.inet_addr
(** Resolve a literal IPv4 address or a hostname (via [getaddrinfo]) to
    an address usable for bind/connect.  Shared by {!Server} and
    {!Client} so both fail the same way.  @raise Failure when the name
    does not resolve to any IPv4 address. *)

val of_fd : ?max_payload:int -> Unix.file_descr -> t
(** Wrap a connected socket.  [max_payload] bounds incoming frames
    (default {!Frame.default_max_payload}). *)

val read_frame : t -> (Frame.t, read_error) result
(** Block until one complete frame arrives.  Never raises on wire
    garbage: protocol violations come back as [Error (Protocol _)]. *)

val write_frame : t -> Frame.t -> bool
(** Write one frame, blocking until fully sent.  [false] when the peer
    (or this side) has closed the connection. *)

val close : t -> unit
(** Close the descriptor.  Idempotent. *)
