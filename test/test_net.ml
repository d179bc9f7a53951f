(* The network front door: wire-protocol totality (qcheck), loopback
   integration against the in-process engine, and backpressure
   isolation between sessions. *)

module Frame = Net.Frame
module Server = Net.Server
module Client = Net.Client
module Qdb = Quantum.Qdb
module Database = Relational.Database
module Travel = Workload.Travel
module Flights = Workload.Flights

(* -- Wire protocol: generators ---------------------------------------------- *)

let string_gen = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
let small_int_gen = QCheck.Gen.(0 -- 1_000_000)

let submission_gen =
  let open QCheck.Gen in
  let* label = string_gen in
  let* partner = opt string_gen in
  let* text = string_gen in
  return { Frame.label; partner; text }

let frame_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun s -> Frame.Hello s) string_gen;
      map (fun s -> Frame.Submit_datalog s) submission_gen;
      map (fun s -> Frame.Submit_sql s) submission_gen;
      map (fun s -> Frame.Query s) string_gen;
      map (fun n -> Frame.Ground n) small_int_gen;
      return Frame.Ground_all;
      map (fun s -> Frame.Ping s) string_gen;
      map (fun s -> Frame.Hello_ok s) string_gen;
      map (fun n -> Frame.Committed n) small_int_gen;
      map (fun s -> Frame.Rejected s) string_gen;
      map (fun s -> Frame.Overloaded s) string_gen;
      map (fun rows -> Frame.Rows rows) (list_size (0 -- 20) string_gen);
      map (fun n -> Frame.Grounded n) small_int_gen;
      map (fun s -> Frame.Pong s) string_gen;
      map (fun s -> Frame.Error_msg s) string_gen;
    ]

let frame_arb = QCheck.make ~print:Frame.to_string frame_gen

let decode_all ?max_payload s ~off ~len = Frame.decode ?max_payload (Bytes.of_string s) ~off ~len

(* -- Wire protocol: properties ---------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips every frame type" ~count:500 frame_arb
    (fun frame ->
      let wire = Frame.encode frame in
      match decode_all wire ~off:0 ~len:(String.length wire) with
      | Frame.Frame (decoded, consumed) ->
        decoded = frame && consumed = String.length wire
      | Frame.Need_more | Frame.Malformed _ -> false)

let prop_truncation_waits =
  (* Every strict prefix of a valid frame is a prefix of a valid frame:
     the decoder must ask for more bytes, never yield a frame or
     misclassify as garbage. *)
  QCheck.Test.make ~name:"strict prefixes decode as Need_more" ~count:300
    QCheck.(pair frame_arb (float_bound_inclusive 1.))
    (fun (frame, cut) ->
      let wire = Frame.encode frame in
      let len = String.length wire in
      let keep = min (len - 1) (int_of_float (cut *. float_of_int len)) in
      match decode_all wire ~off:0 ~len:keep with
      | Frame.Need_more -> true
      | Frame.Frame _ | Frame.Malformed _ -> false)

let prop_concatenation =
  QCheck.Test.make ~name:"back-to-back frames split at the right byte" ~count:300
    QCheck.(pair frame_arb frame_arb)
    (fun (a, b) ->
      let wire = Frame.encode a ^ Frame.encode b in
      match decode_all wire ~off:0 ~len:(String.length wire) with
      | Frame.Frame (decoded, consumed) ->
        decoded = a
        && consumed = String.length (Frame.encode a)
        && (match
              decode_all wire ~off:consumed ~len:(String.length wire - consumed)
            with
           | Frame.Frame (decoded_b, consumed_b) ->
             decoded_b = b && consumed + consumed_b = String.length wire
           | Frame.Need_more | Frame.Malformed _ -> false)
      | Frame.Need_more | Frame.Malformed _ -> false)

let prop_garbage_total =
  (* Arbitrary bytes never raise; any yielded frame re-encodes to at
     most the bytes consumed (the decoder invents nothing). *)
  QCheck.Test.make ~name:"decoder is total on garbage" ~count:1000
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.(char_range '\000' '\255'))
    (fun s ->
      match decode_all s ~off:0 ~len:(String.length s) with
      | Frame.Frame (frame, consumed) ->
        consumed <= String.length s && String.length (Frame.encode frame) = consumed
      | Frame.Need_more | Frame.Malformed _ -> true)

(* The one reassembly path both the blocking reader and the server
   loop use: whatever sizes the socket hands the bytes over in, the same
   frames come out in order and nothing is left behind. *)
let prop_inbox_reassembles =
  QCheck.Test.make ~name:"inbox reassembles frames from any byte split" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 8) frame_arb) (list_of_size Gen.(1 -- 16) (int_range 1 600)))
    (fun (frames, cuts) ->
      let wire = String.concat "" (List.map Frame.encode frames) in
      let inbox = Net.Conn.Inbox.create () in
      let popped = ref [] in
      let rec drain () =
        match Net.Conn.Inbox.pop inbox with
        | Ok (Some frame) -> popped := frame :: !popped; drain ()
        | Ok None -> ()
        | Error msg -> QCheck.Test.fail_reportf "valid bytes rejected: %s" msg
      in
      let pos = ref 0 and cuts = ref cuts in
      while !pos < String.length wire do
        let step = match !cuts with c :: rest -> cuts := rest @ [ c ]; c | [] -> 1 in
        let stop = min (String.length wire) (!pos + step) in
        while !pos < stop do
          drain ();
          ignore
            (Net.Conn.Inbox.fill inbox (fun buf off len ->
                 let n = min len (stop - !pos) in
                 Bytes.blit_string wire !pos buf off n;
                 pos := !pos + n;
                 n))
        done
      done;
      drain ();
      List.rev !popped = frames && Net.Conn.Inbox.buffered inbox = 0)

let header payload_len tag =
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 (Int32.of_int payload_len);
  Bytes.set b 4 (Char.chr tag);
  Bytes.to_string b

let test_oversized_rejected () =
  (* A declared payload over the bound is malformed before any body
     bytes arrive — no allocation of attacker-chosen size. *)
  let h = header (Frame.default_max_payload + 1) 0x01 in
  (match decode_all h ~off:0 ~len:(String.length h) with
   | Frame.Malformed _ -> ()
   | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "oversized length accepted");
  (* A tighter explicit bound applies too. *)
  let ping = Frame.encode (Frame.Ping (String.make 100 'x')) in
  match decode_all ~max_payload:50 ping ~off:0 ~len:(String.length ping) with
  | Frame.Malformed _ -> ()
  | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "payload bound not enforced"

let test_zero_length_rejected () =
  let b = String.make 4 '\000' in
  match decode_all b ~off:0 ~len:4 with
  | Frame.Malformed _ -> ()
  | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "zero payload length accepted"

let test_unknown_tag_rejected () =
  let h = header 1 0xEE in
  match decode_all h ~off:0 ~len:(String.length h) with
  | Frame.Malformed _ -> ()
  | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "unknown tag accepted"

let test_trailing_bytes_rejected () =
  (* A Ground frame with one spare byte inside the declared payload:
     lengths that do not add up are a protocol violation, not slack. *)
  let body = Bytes.create 9 in
  Bytes.set_int64_be body 0 7L;
  Bytes.set body 8 'x';
  let wire = header (1 + 9) 0x05 ^ Bytes.to_string body in
  match decode_all wire ~off:0 ~len:(String.length wire) with
  | Frame.Malformed _ -> ()
  | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "trailing payload bytes accepted"

let test_truncated_string_rejected () =
  (* An inner string length running past the payload end must be caught
     by bounds checking, not by reading into the next frame. *)
  let body = Bytes.create 4 in
  Bytes.set_int32_be body 0 1000l;
  let wire = header (1 + 4) 0x04 ^ Bytes.to_string body in
  match decode_all wire ~off:0 ~len:(String.length wire) with
  | Frame.Malformed _ -> ()
  | Frame.Frame _ | Frame.Need_more -> Alcotest.fail "overlong inner string accepted"

(* -- Loopback: concurrent sessions == direct engine ------------------------- *)

let geometry = { Flights.flights = 3; rows_per_flight = 2; dest = "LA" }
let pairs_per_flight = 3 (* 6 users per flight, 4 seats: rejections guaranteed *)

let users = Travel.make_users ~flights:geometry.Flights.flights ~pairs_per_flight

let submission_of u =
  (* Deterministic per-user mix of entangled and plain text forms. *)
  let entangled = Hashtbl.hash (u.Travel.name, "loopback") land 1 = 0 in
  let text = if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u in
  let partner = if entangled then Some u.Travel.partner else None in
  { Frame.label = u.Travel.name; partner; text }

let verdict_kind = function
  | Ok (Qdb.Committed _) -> "committed"
  | Ok (Qdb.Rejected _) -> "rejected"
  | Ok (Qdb.Overloaded _) -> "overloaded"
  | Error msg -> "error: " ^ msg

(* Ground truth: the same texts through the in-process engine, flight by
   flight (flights are independent partitions, so any cross-flight
   interleaving admits identically). *)
let direct_run () =
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  let verdicts =
    List.map
      (fun u ->
        let s = submission_of u in
        let txn =
          Quantum.Datalog_parser.parse_txn ~label:s.Frame.label
            ~trigger:
              (match s.Frame.partner with
               | Some p -> Quantum.Rtxn.On_partner p
               | None -> Quantum.Rtxn.On_demand)
            s.Frame.text
        in
        (u.Travel.name, verdict_kind (Ok (Qdb.submit qdb txn))))
      users
  in
  ignore (Qdb.ground_all qdb);
  (verdicts, Database.copy (Qdb.db qdb))

let loopback_run () =
  let store = Flights.fresh_store geometry in
  let config = { Server.default_config with Server.max_batch = 8 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let addr = Server.address server in
  let per_flight = Array.make geometry.Flights.flights [] in
  let drive f =
    let client = Client.connect addr in
    let mine = List.filter (fun u -> u.Travel.flight = f) users in
    let verdicts =
      List.map
        (fun u ->
          let s = submission_of u in
          (u.Travel.name, verdict_kind (Client.submit_datalog client ~label:s.Frame.label
                                          ?partner:s.Frame.partner s.Frame.text)))
        mine
    in
    Client.close client;
    per_flight.(f) <- verdicts
  in
  let threads =
    List.init geometry.Flights.flights (fun f -> Thread.create (fun () -> drive f) ())
  in
  List.iter Thread.join threads;
  let finisher = Client.connect addr in
  (match Client.ground_all finisher with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "ground_all failed: %s" msg);
  Client.close finisher;
  let db = Database.copy (Qdb.db (Server.qdb server)) in
  Server.stop server;
  Alcotest.(check bool) "server stopped cleanly" true (Server.failure server = None);
  (Array.to_list per_flight |> List.concat, db)

let test_loopback_identity () =
  let direct_verdicts, direct_db = direct_run () in
  let server_verdicts, server_db = loopback_run () in
  List.iter
    (fun (name, kind) ->
      match List.assoc_opt name server_verdicts with
      | None -> Alcotest.failf "user %s got no verdict over the wire" name
      | Some wire_kind ->
        Alcotest.(check string) (Printf.sprintf "verdict for %s" name) kind wire_kind)
    direct_verdicts;
  Alcotest.(check int) "same verdict count" (List.length direct_verdicts)
    (List.length server_verdicts);
  Alcotest.(check bool) "identical databases after ground_all" true
    (Database.equal direct_db server_db)

(* -- Loopback: per-request failures stay on their session -------------------- *)

let test_loopback_errors () =
  let store = Flights.fresh_store geometry in
  let server = Server.start ~store (Server.Tcp ("127.0.0.1", 0)) in
  let client = Client.connect (Server.address server) in
  (match Client.hello client with
   | Ok banner -> Alcotest.(check string) "banner" "qdb/1" banner
   | Error msg -> Alcotest.failf "hello failed: %s" msg);
  (match Client.submit_datalog client ~label:"bad" "this is not datalog" with
   | Error msg ->
     Alcotest.(check bool) "syntax error surfaced" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "garbage text admitted");
  (match Client.ground client 424242 with
   | Ok n -> Alcotest.(check int) "unknown id grounds nothing" 0 n
   | Error msg -> Alcotest.failf "unknown-id ground was a transport error: %s" msg);
  (* The session survived both failures. *)
  (match Client.ping client "still-there" with
   | Ok payload -> Alcotest.(check string) "pong" "still-there" payload
   | Error msg -> Alcotest.failf "ping after errors failed: %s" msg);
  Client.close client;
  Server.stop server

(* -- Backpressure: a stalled reader only stalls itself ----------------------- *)

let test_stalled_session_isolated () =
  let store = Flights.fresh_store geometry in
  let config = { Server.default_config with Server.session_buffer = 2; max_batch = 4 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let addr = Server.address server in
  let flood = 64 in
  let stalled = Client.connect addr in
  (* Fire-and-forget a pile of pings without reading a single response:
     at most [session_buffer] of them are ever in flight server-side;
     the rest queue in socket buffers while this session's reader
     thread sits in the semaphore. *)
  for i = 0 to flood - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "send %d accepted" i)
      true
      (Client.send stalled (Frame.Ping (string_of_int i)))
  done;
  (* A well-behaved concurrent session must make progress while the
     flooder refuses to read. *)
  let brisk = Client.connect addr in
  for i = 0 to 9 do
    match Client.ping brisk (Printf.sprintf "brisk-%d" i) with
    | Ok payload ->
      Alcotest.(check string) "brisk pong" (Printf.sprintf "brisk-%d" i) payload
    | Error msg -> Alcotest.failf "brisk session stalled by flooder: %s" msg
  done;
  Client.close brisk;
  (* The flooder then drains everything, in order, nothing lost. *)
  for i = 0 to flood - 1 do
    match Client.recv stalled with
    | Ok (Frame.Pong payload) ->
      Alcotest.(check string) (Printf.sprintf "pong %d in order" i) (string_of_int i) payload
    | Ok frame -> Alcotest.failf "expected Pong, got %s" (Frame.to_string frame)
    | Error _ -> Alcotest.failf "flooded session lost response %d" i
  done;
  Client.close stalled;
  Server.stop server

(* A protocol-legal window-defeat attempt: interleave Hellos (handled
   inline, no engine round-trip) with requests, never read a byte.
   Hello responses must consume window slots like any other — if they
   widened the window instead (the old bug: the writer released a permit
   per frame written, including frames that never acquired one), the
   flooder's backlog would eventually fill its response mailbox and
   block the engine thread on it, stalling every other session. *)
let test_hello_flood_isolated () =
  let store = Flights.fresh_store geometry in
  let config = { Server.default_config with Server.session_buffer = 2; max_batch = 4 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let addr = Server.address server in
  let rounds = 32 in
  let flooder = Client.connect addr in
  for i = 0 to rounds - 1 do
    Alcotest.(check bool) (Printf.sprintf "hello %d accepted" i) true
      (Client.send flooder (Frame.Hello (string_of_int i)));
    Alcotest.(check bool) (Printf.sprintf "ping %d accepted" i) true
      (Client.send flooder (Frame.Ping (string_of_int i)))
  done;
  (* The engine must still serve other sessions promptly. *)
  let brisk = Client.connect addr in
  for i = 0 to 9 do
    match Client.ping brisk (Printf.sprintf "brisk-%d" i) with
    | Ok payload ->
      Alcotest.(check string) "brisk pong" (Printf.sprintf "brisk-%d" i) payload
    | Error msg -> Alcotest.failf "brisk session stalled by hello flooder: %s" msg
  done;
  Client.close brisk;
  (* The flooder drains its whole backlog, nothing lost: all Hello_oks
     (enqueued inline by the reader) and all pongs, the latter in
     request order.  The two kinds interleave freely on the wire — the
     reader may enqueue Hello_ok(i+1) before the engine acks ping i. *)
  let hellos = ref 0 and pongs = ref [] in
  for i = 0 to (2 * rounds) - 1 do
    match Client.recv flooder with
    | Ok (Frame.Hello_ok _) -> incr hellos
    | Ok (Frame.Pong payload) -> pongs := payload :: !pongs
    | Ok frame -> Alcotest.failf "frame %d: unexpected %s" i (Frame.to_string frame)
    | Error _ -> Alcotest.failf "frame %d of %d lost" i (2 * rounds)
  done;
  Alcotest.(check int) "every hello answered" rounds !hellos;
  Alcotest.(check (list string)) "pongs in request order"
    (List.init rounds string_of_int) (List.rev !pongs);
  Client.close flooder;
  Server.stop server;
  Alcotest.(check bool) "no failure recorded" true (Server.failure server = None)

(* -- The engine queue bounds decoded work across sessions ------------------- *)

let test_engine_queue_bound () =
  let store = Flights.fresh_store geometry in
  let config = { Server.default_config with Server.engine_queue = 2; max_batch = 4 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let addr = Server.address server in
  let per_session = 40 in
  let tag c i = Printf.sprintf "%d-%d" c i in
  let replies = Array.make 4 [] in
  let drive c =
    let client = Client.connect addr in
    for i = 0 to per_session - 1 do
      ignore (Client.send client (Frame.Ping (tag c i)))
    done;
    replies.(c) <-
      List.init per_session (fun _ ->
          match Client.recv client with
          | Ok frame -> Frame.to_string frame
          | Error _ -> "lost");
    Client.close client
  in
  List.iter Thread.join (List.init 4 (fun c -> Thread.create drive c));
  Array.iteri
    (fun c got ->
      Alcotest.(check (list string)) (Printf.sprintf "session %d replies in order" c)
        (List.init per_session (fun i -> Frame.to_string (Frame.Pong (tag c i))))
        got)
    replies;
  let queued_max =
    match Obs.Registry.find (Server.registry server) "net.engine.queued_max" with
    | Some (Obs.Registry.Gauge g) -> g
    | _ -> Alcotest.fail "net.engine.queued_max gauge missing"
  in
  Server.stop server;
  Alcotest.(check bool) "requests did queue" true (queued_max >= 1.);
  Alcotest.(check bool) (Printf.sprintf "queued_max %.0f <= 2" queued_max) true (queued_max <= 2.)

(* -- Replies are not held behind the peer's delayed ack --------------------- *)

(* Open loop on one session: a ping every 5 ms, replies read on another
   thread.  A pipelined burst goes first: its replies leave in more than
   one write (the window is 16), so one goes out while an earlier one is
   still unacknowledged — the state in which Nagle holds every later
   reply until the next request arrives, one send period later.  Round
   trips before the burst take the client out of quick-ack mode, in
   which it would acknowledge the early replies at once. *)
let test_reply_not_held () =
  let store = Flights.fresh_store geometry in
  let server = Server.start ~store (Server.Tcp ("127.0.0.1", 0)) in
  let client = Client.connect (Server.address server) in
  for i = 0 to 31 do
    ignore (Client.ping client (string_of_int i))
  done;
  let burst = 2 * Server.default_config.Server.session_buffer and n = 100 in
  let sent_at = Array.make (burst + n) 0L and rtt = Array.make (burst + n) infinity in
  let receiver =
    Thread.create
      (fun () ->
        for i = 0 to burst + n - 1 do
          match Client.recv client with
          | Ok (Frame.Pong _) -> rtt.(i) <- Obs.Mclock.elapsed_s sent_at.(i) *. 1e3
          | Ok _ | Error _ -> ()
        done)
      ()
  in
  for i = 0 to burst + n - 1 do
    if i >= burst then Thread.delay 0.005;
    sent_at.(i) <- Obs.Mclock.now_ns ();
    ignore (Client.send client (Frame.Ping (string_of_int i)))
  done;
  Thread.join receiver;
  Client.close client;
  Server.stop server;
  let spaced = Array.sub rtt burst n in
  Array.sort compare spaced;
  let median = spaced.(n / 2) in
  Alcotest.(check bool) (Printf.sprintf "median round trip %.3f ms < 2.5 ms" median) true (median < 2.5)

(* -- A peer that will not read cannot hold up a graceful stop ---------------- *)

let test_stop_bounded_by_stalled_peer () =
  let store = Flights.fresh_store geometry in
  let max_payload = 4 lsl 20 in
  let config = { Server.default_config with Server.max_payload } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let client = Client.connect ~max_payload (Server.address server) in
  (* 32 MiB of echoes: more than the socket buffers hold, so replies are
     still owed when the stop begins and the peer never reads them. *)
  let payload i = String.make (2 lsl 20) (Char.chr (Char.code 'a' + i)) in
  for i = 0 to 15 do
    ignore (Client.send client (Frame.Ping (payload i)))
  done;
  Thread.delay 0.2;
  let t0 = Obs.Mclock.now_ns () in
  Server.stop server;
  let took = Obs.Mclock.elapsed_s t0 in
  Alcotest.(check bool) (Printf.sprintf "stop returned in %.2f s" took) true (took < 5.);
  Alcotest.(check bool) "no failure recorded" true (Server.failure server = None);
  (* What did arrive is whole and in order. *)
  let rec drain i =
    match Client.recv client with
    | Ok (Frame.Pong p) ->
      Alcotest.(check bool) (Printf.sprintf "pong %d intact" i) true (p = payload i);
      drain (i + 1)
    | Ok frame -> Alcotest.failf "unexpected %s" (Frame.to_string frame)
    | Error _ -> ()
  in
  drain 0;
  Client.close client

(* -- Graceful shutdown answers everything admitted --------------------------- *)

let test_stop_acks_admitted () =
  let store = Flights.fresh_store geometry in
  let server = Server.start ~store (Server.Tcp ("127.0.0.1", 0)) in
  let client = Client.connect (Server.address server) in
  let n = 8 in
  for i = 0 to n - 1 do
    ignore (Client.send client (Frame.Ping (string_of_int i)))
  done;
  (* Stop races the pings: everything that reached the engine queue must
     still be answered (drain-then-disconnect), and the tail may see a
     clean close — never a hang, never a half-written frame. *)
  let stopper = Thread.create (fun () -> Server.stop server) () in
  let answered = ref 0 in
  (try
     for _ = 0 to n - 1 do
       match Client.recv client with
       | Ok (Frame.Pong _) -> incr answered
       | Ok (Frame.Error_msg _) -> raise Exit (* shutting down: allowed *)
       | Ok frame -> Alcotest.failf "unexpected frame %s" (Frame.to_string frame)
       | Error _ -> raise Exit
     done
   with Exit -> ());
  Thread.join stopper;
  Client.close client;
  Alcotest.(check bool) "server reports no failure" true (Server.failure server = None);
  Alcotest.(check bool) "answered count sane" true (!answered <= n)

let suite =
  [ QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_waits;
    QCheck_alcotest.to_alcotest prop_concatenation;
    QCheck_alcotest.to_alcotest prop_garbage_total;
    QCheck_alcotest.to_alcotest prop_inbox_reassembles;
    Alcotest.test_case "oversized payloads rejected" `Quick test_oversized_rejected;
    Alcotest.test_case "zero-length payloads rejected" `Quick test_zero_length_rejected;
    Alcotest.test_case "unknown tags rejected" `Quick test_unknown_tag_rejected;
    Alcotest.test_case "trailing payload bytes rejected" `Quick test_trailing_bytes_rejected;
    Alcotest.test_case "overlong inner strings rejected" `Quick test_truncated_string_rejected;
    Alcotest.test_case "loopback sessions = direct engine" `Quick test_loopback_identity;
    Alcotest.test_case "per-request failures stay on their session" `Quick
      test_loopback_errors;
    Alcotest.test_case "stalled reader only stalls itself" `Quick
      test_stalled_session_isolated;
    Alcotest.test_case "hello flood cannot widen the session window" `Quick
      test_hello_flood_isolated;
    Alcotest.test_case "engine queue bounds decoded requests" `Quick
      test_engine_queue_bound;
    Alcotest.test_case "replies leave without waiting for the next request" `Quick
      test_reply_not_held;
    Alcotest.test_case "graceful stop answers everything admitted" `Quick
      test_stop_acks_admitted;
    Alcotest.test_case "a peer that will not read cannot hold up stop" `Quick
      test_stop_bounded_by_stalled_peer;
  ]
