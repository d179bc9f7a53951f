(* Framed socket IO.  The read path is an [Inbox]: bytes accumulate at
   the front of one growable buffer, [Frame.decode] is retried on
   demand, and a decoded frame's bytes are shifted out.  The blocking
   [read_frame] below and the server's non-blocking event loop share it,
   so frame reassembly exists once. *)

module Inbox = struct
  type t = {
    max_payload : int;
    mutable buf : Bytes.t;
    mutable len : int; (* valid bytes at offset 0 *)
  }

  let create ?(max_payload = Frame.default_max_payload) () =
    { max_payload; buf = Bytes.create 4096; len = 0 }

  let buffered t = t.len

  let pop t =
    match Frame.decode ~max_payload:t.max_payload t.buf ~off:0 ~len:t.len with
    | Frame.Frame (frame, consumed) ->
      Bytes.blit t.buf consumed t.buf 0 (t.len - consumed);
      t.len <- t.len - consumed;
      Ok (Some frame)
    | Frame.Need_more -> Ok None
    | Frame.Malformed msg -> Error msg

  (* A full buffer that still decodes as [Need_more] holds a prefix of
     one frame no larger than the payload bound, so doubling up to that
     bound always leaves room. *)
  let fill t read =
    if t.len = Bytes.length t.buf then begin
      let cap = min (4 + t.max_payload) (max 4096 (2 * Bytes.length t.buf)) in
      if cap <= t.len then invalid_arg "Conn.Inbox.fill: pop ready frames first";
      let nbuf = Bytes.create cap in
      Bytes.blit t.buf 0 nbuf 0 t.len;
      t.buf <- nbuf
    end;
    let n = read t.buf t.len (Bytes.length t.buf - t.len) in
    t.len <- t.len + n;
    n
end

type t = {
  fd : Unix.file_descr;
  inbox : Inbox.t;
  wmutex : Mutex.t;
  cmutex : Mutex.t; (* guards [closed] *)
  mutable closed : bool;
}

type read_error =
  | Closed
  | Protocol of string

(* A peer that vanished mid-conversation must surface as EPIPE from
   [write], not as a process-killing SIGPIPE — every socket writer here
   (server acks to a dead client, client requests to a crashed server)
   treats write failure as connection death. *)
let ignore_sigpipe =
  let once =
    lazy
      (if not Sys.win32 then
         try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Sys_error _ -> ())
  in
  fun () -> Lazy.force once

(* One resolver for server bind and client connect.  [gethostbyname] is
   a trap here: beyond being obsolete, an entry with an empty address
   list makes [h_addr_list.(0)] raise [Invalid_argument].  Literal
   addresses short-circuit; names go through [getaddrinfo], which never
   returns an empty-address entry. *)
let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ ->
    let candidates =
      try
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with Unix.Unix_error _ | Not_found -> []
    in
    (match
       List.find_map
         (function { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } -> Some a | _ -> None)
         candidates
     with
     | Some addr -> addr
     | None -> failwith (Printf.sprintf "cannot resolve host %S" host))

let of_fd ?max_payload fd =
  ignore_sigpipe ();
  {
    fd;
    inbox = Inbox.create ?max_payload ();
    wmutex = Mutex.create ();
    cmutex = Mutex.create ();
    closed = false;
  }

let close t =
  Mutex.lock t.cmutex;
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.cmutex

let rec read_frame t =
  match Inbox.pop t.inbox with
  | Ok (Some frame) -> Ok frame
  | Error msg -> Error (Protocol msg)
  | Ok None ->
    let n =
      try Inbox.fill t.inbox (Unix.read t.fd) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> -1 (* retry *)
      | Unix.Unix_error _ -> 0 (* reset/closed: treat as EOF *)
    in
    if n <> 0 then read_frame t
    else if Inbox.buffered t.inbox = 0 then Error Closed
    else Error (Protocol "eof inside a frame")

let write_frame t frame =
  let data = Bytes.unsafe_of_string (Frame.encode frame) in
  Mutex.lock t.wmutex;
  let ok =
    try
      let len = Bytes.length data in
      let sent = ref 0 in
      while !sent < len do
        match Unix.write t.fd data !sent (len - !sent) with
        | n -> sent := !sent + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      true
    with Unix.Unix_error _ -> false
  in
  Mutex.unlock t.wmutex;
  ok
