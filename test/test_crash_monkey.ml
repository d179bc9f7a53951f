(* The crash-monkey harness itself: bounded deterministic crash/recover
   cycles must find zero recovery-invariant violations, exercise every
   damage mode, and reproduce exactly from the seed. *)

module Crash_monkey = Workload.Crash_monkey

let test_no_violations () =
  let s = Crash_monkey.run ~cycles:60 ~seed:7 () in
  Alcotest.(check int) "all cycles ran" 60 s.Crash_monkey.cycles;
  Alcotest.(check bool) "crashes actually happened" true (s.Crash_monkey.crashes > 40);
  List.iter
    (fun (cycle, what) -> Alcotest.failf "cycle %d: %s" cycle what)
    s.Crash_monkey.violations

let test_all_damage_modes_exercised () =
  let s = Crash_monkey.run ~cycles:60 ~seed:7 () in
  Alcotest.(check bool) "clean crashes" true (s.Crash_monkey.clean_crashes > 0);
  Alcotest.(check bool) "torn crashes" true (s.Crash_monkey.torn_crashes > 0);
  Alcotest.(check bool) "bit-flip crashes" true (s.Crash_monkey.flipped_crashes > 0);
  Alcotest.(check bool) "mid-log flips" true (s.Crash_monkey.mid_log_flips > 0);
  Alcotest.(check bool) "lenient truncations" true (s.Crash_monkey.truncations > 0)

let test_deterministic () =
  let a = Crash_monkey.run ~cycles:20 ~seed:99 () in
  let b = Crash_monkey.run ~cycles:20 ~seed:99 () in
  Alcotest.(check bool) "same seed, same summary" true (a = b);
  let c = Crash_monkey.run ~cycles:20 ~seed:100 () in
  Alcotest.(check bool) "different seed, different schedule" true
    (a.Crash_monkey.records_kept <> c.Crash_monkey.records_kept
     || a.Crash_monkey.records_dropped <> c.Crash_monkey.records_dropped
     || a.Crash_monkey.crashes <> c.Crash_monkey.crashes)

(* -- Server mode: the ack-after-fsync contract over real sockets ---------- *)

let test_server_contract () =
  let s = Crash_monkey.run_server ~cycles:12 ~seed:77 () in
  Alcotest.(check int) "all cycles ran" 12 s.Crash_monkey.srv_cycles;
  Alcotest.(check bool) "crashes actually happened" true (s.Crash_monkey.srv_crashes > 6);
  Alcotest.(check bool) "admissions were acked" true (s.Crash_monkey.srv_acked > 0);
  Alcotest.(check bool) "group commit actually batched" true (s.Crash_monkey.srv_batches > 0);
  List.iter
    (fun (cycle, what) -> Alcotest.failf "cycle %d: %s" cycle what)
    s.Crash_monkey.srv_violations

let test_server_volatility_bites () =
  (* The volatile write buffer must make some un-acked submission vanish
     across the cycles — otherwise the acked/un-acked distinction was
     never at stake and the contract is vacuous. *)
  let s = Crash_monkey.run_server ~cycles:12 ~seed:77 () in
  Alcotest.(check bool) "un-acked submissions vanished" true
    (s.Crash_monkey.srv_lost_unacked > 0)

let suite =
  [ Alcotest.test_case "no violations over 60 cycles" `Quick test_no_violations;
    Alcotest.test_case "all damage modes exercised" `Quick test_all_damage_modes_exercised;
    Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
    Alcotest.test_case "server: acked admissions survive" `Quick test_server_contract;
    Alcotest.test_case "server: un-acked losses occur" `Quick test_server_volatility_bites;
  ]
