(* Tests for token-ring mutual exclusion and the alternating-bit
   protocol — including the documented duplicate-content limitation of
   LMC that ABP's bug exposes. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------- token mutex ---------- *)

module Mutex = Protocols.Token_mutex.Make (struct
  let num_nodes = 3
  let contenders = [ 1; 2 ]
  let max_regenerations = 1
  let bug = Protocols.Token_mutex.No_bug
end)

module Mutex_bug = Protocols.Token_mutex.Make (struct
  let num_nodes = 3
  let contenders = [ 1; 2 ]
  let max_regenerations = 1
  let bug = Protocols.Token_mutex.Regenerate_token
end)

let init (type s) (module P : Dsm.Protocol.S with type state = s) =
  Dsm.Protocol.initial_system (module P)

let test_mutex_actions () =
  let holder = Mutex.initial 0 in
  check Alcotest.bool "node 0 starts with the token" true
    holder.Protocols.Token_mutex.has_token;
  (* uninterested holder passes *)
  (match Mutex.enabled_actions ~self:0 holder with
  | [ Protocols.Token_mutex.Pass ] -> ()
  | _ -> fail "holder should pass");
  let contender = Mutex.initial 1 in
  (match Mutex.enabled_actions ~self:1 contender with
  | [ Protocols.Token_mutex.Want ] -> ()
  | _ -> fail "contender should want");
  let wanting, _ = Mutex.handle_action ~self:1 contender Protocols.Token_mutex.Want in
  check Alcotest.int "nothing enabled without token" 0
    (List.length (Mutex.enabled_actions ~self:1 wanting));
  let with_token, _ =
    Mutex.handle_message ~self:1 wanting (Dsm.Envelope.make ~src:0 ~dst:1 ())
  in
  (match Mutex.enabled_actions ~self:1 with_token with
  | [ Protocols.Token_mutex.Enter ] -> ()
  | _ -> fail "should enter");
  let in_cs, _ = Mutex.handle_action ~self:1 with_token Protocols.Token_mutex.Enter in
  check Alcotest.bool "in cs" true in_cs.Protocols.Token_mutex.in_cs;
  let left, out = Mutex.handle_action ~self:1 in_cs Protocols.Token_mutex.Leave in
  check Alcotest.bool "served" true left.Protocols.Token_mutex.served;
  check Alcotest.bool "token released" false left.Protocols.Token_mutex.has_token;
  check Alcotest.int "token passed on" 1 (List.length out)

let test_mutex_double_token_assert () =
  let holder = Mutex.initial 0 in
  match Mutex.handle_message ~self:0 holder (Dsm.Envelope.make ~src:2 ~dst:0 ()) with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "second token accepted silently"

let test_mutex_safe_global_and_lmc () =
  let module G = Mc_global.Bdfs.Make (Mutex) in
  let o =
    G.run G.default_config ~invariant:Mutex.mutual_exclusion
      (init (module Mutex))
  in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "exclusion holds" true (o.violation = None);
  let module L = Lmc.Checker.Make (Mutex) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:Mutex.mutual_exclusion (init (module Mutex))
  in
  check Alcotest.bool "LMC quiet" true (r.sound_violation = None)

let test_mutex_bug_found () =
  let module G = Mc_global.Bdfs.Make (Mutex_bug) in
  let o =
    G.run G.default_config ~invariant:Mutex_bug.mutual_exclusion
      (init (module Mutex_bug))
  in
  check Alcotest.bool "B-DFS finds the double token" true (o.violation <> None);
  let module L = Lmc.Checker.Make (Mutex_bug) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:Mutex_bug.mutual_exclusion (init (module Mutex_bug))
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.bool "two nodes in CS in the witness" true
        (Dsm.Invariant.check Mutex_bug.mutual_exclusion v.system <> None)
  | None -> fail "LMC missed the regeneration bug"

(* ---------- alternating bit ---------- *)

module Abp = Protocols.Alternating_bit.Make (struct
  let data = [ 10; 20 ]
  let max_retransmits = 1
  let bug = Protocols.Alternating_bit.No_bug
end)

module Abp_bug = Protocols.Alternating_bit.Make (struct
  let data = [ 10; 20 ]
  let max_retransmits = 1
  let bug = Protocols.Alternating_bit.Ignore_bit
end)

let test_abp_happy_path () =
  let s = Abp.initial 0 and r = Abp.initial 1 in
  let s, out = Abp.handle_action ~self:0 s Protocols.Alternating_bit.Send in
  let data_frame = List.hd out in
  let r, acks = Abp.handle_message ~self:1 r data_frame in
  (match r with
  | Protocols.Alternating_bit.R rr ->
      check Alcotest.(list int) "delivered" [ 10 ]
        rr.Protocols.Alternating_bit.delivered
  | _ -> fail "receiver shape");
  let s, _ = Abp.handle_message ~self:0 s (List.hd acks) in
  match s with
  | Protocols.Alternating_bit.S ss ->
      check Alcotest.bool "bit flipped" true ss.Protocols.Alternating_bit.bit;
      check Alcotest.(list int) "one pending left" [ 20 ]
        ss.Protocols.Alternating_bit.pending
  | _ -> fail "sender shape"

let test_abp_duplicate_filtered () =
  let r = Abp.initial 1 in
  let frame =
    Dsm.Envelope.make ~src:0 ~dst:1 (Protocols.Alternating_bit.Data (false, 10))
  in
  let r, _ = Abp.handle_message ~self:1 r frame in
  let r', acks = Abp.handle_message ~self:1 r frame in
  check Alcotest.bool "duplicate ignored" true (r = r');
  check Alcotest.int "but re-acked" 1 (List.length acks)

let test_abp_bug_duplicates () =
  let r = Abp_bug.initial 1 in
  let frame =
    Dsm.Envelope.make ~src:0 ~dst:1 (Protocols.Alternating_bit.Data (false, 10))
  in
  let r, _ = Abp_bug.handle_message ~self:1 r frame in
  let r', _ = Abp_bug.handle_message ~self:1 r frame in
  match r' with
  | Protocols.Alternating_bit.R rr ->
      check Alcotest.(list int) "delivered twice" [ 10; 10 ]
        rr.Protocols.Alternating_bit.delivered
  | _ -> fail "receiver shape"

(* The checkers rediscover a classic result: the alternating-bit
   protocol is only correct over FIFO channels.  Over our unordered
   network a retransmitted frame can arrive after the bit has wrapped
   around and be delivered again — B-DFS finds that genuine design
   limitation in the UNMODIFIED protocol. *)
let test_abp_needs_fifo () =
  let module G = Mc_global.Bdfs.Make (Abp) in
  let o =
    G.run G.default_config ~invariant:Abp.prefix_delivery (init (module Abp))
  in
  (match o.violation with
  | Some v ->
      (* the witness must use a retransmission: the flaw needs two
         copies of a frame in flight *)
      check Alcotest.bool "witness retransmits" true
        (List.exists
           (function
             | Dsm.Trace.Execute (_, Protocols.Alternating_bit.Retransmit) ->
                 true
             | _ -> false)
           v.trace)
  | None -> fail "reordering flaw not found");
  (* without retransmissions there is never a second copy: safe *)
  let module Abp_nr = Protocols.Alternating_bit.Make (struct
    let data = [ 10; 20 ]
    let max_retransmits = 0
    let bug = Protocols.Alternating_bit.No_bug
  end) in
  let module Gnr = Mc_global.Bdfs.Make (Abp_nr) in
  let o =
    Gnr.run Gnr.default_config ~invariant:Abp_nr.prefix_delivery
      (init (module Abp_nr))
  in
  check Alcotest.bool "safe without retransmission" true (o.violation = None)

module Fifo_abp = Protocols.Fifo.Make (Abp)
module Fifo_abp_bug = Protocols.Fifo.Make (Abp_bug)

let test_abp_fifo_safe () =
  (* under FIFO channels the correct protocol is safe, retransmissions
     and all — both checkers agree *)
  let module G = Mc_global.Bdfs.Make (Fifo_abp) in
  let inv = Fifo_abp.lift_invariant Abp.prefix_delivery in
  let o = G.run G.default_config ~invariant:inv (init (module Fifo_abp)) in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "safe under FIFO" true (o.violation = None);
  let module L = Lmc.Checker.Make (Fifo_abp) in
  let r =
    L.run L.default_config ~strategy:L.General ~invariant:inv
      (init (module Fifo_abp))
  in
  check Alcotest.bool "LMC agrees" true (r.sound_violation = None)

let test_abp_fifo_bug_found_by_lmc () =
  (* under FIFO the retransmitted frame carries a fresh channel
     sequence number, so its content is distinct and default LMC sees
     the buggy double delivery too *)
  let module L = Lmc.Checker.Make (Fifo_abp_bug) in
  let inv = Fifo_abp_bug.lift_invariant Abp_bug.prefix_delivery in
  let r =
    L.run L.default_config ~strategy:L.General ~invariant:inv
      (init (module Fifo_abp_bug))
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.bool "duplication in the witness state" true
        (Dsm.Invariant.check inv v.system <> None)
  | None -> fail "LMC missed the ignore-bit bug under FIFO"

(* The headline of this file: the buggy duplication involves two
   deliveries of an identical frame.  The global checker (multiset
   network) finds it; default LMC cannot — its shared network holds one
   copy per content and the per-state history never re-executes it on a
   path (the paper's duplicate limit "set to zero").  Disabling the
   history recovers the bug. *)
let test_abp_bug_visibility () =
  let module G = Mc_global.Bdfs.Make (Abp_bug) in
  let o =
    G.run G.default_config ~invariant:Abp_bug.prefix_delivery
      (init (module Abp_bug))
  in
  check Alcotest.bool "global checker finds the duplication" true
    (o.violation <> None);
  let module L = Lmc.Checker.Make (Abp_bug) in
  let run cfg =
    (L.run cfg ~strategy:L.General ~invariant:Abp_bug.prefix_delivery
       (init (module Abp_bug)))
      .sound_violation
    <> None
  in
  check Alcotest.bool "default LMC misses it (documented limit)" false
    (run L.default_config);
  check Alcotest.bool "LMC without histories finds it" true
    (run { L.default_config with use_history = false })

let () =
  Alcotest.run "mutex_abp"
    [
      ( "mutex",
        [
          Alcotest.test_case "actions" `Quick test_mutex_actions;
          Alcotest.test_case "double-token assert" `Quick
            test_mutex_double_token_assert;
          Alcotest.test_case "safe" `Quick test_mutex_safe_global_and_lmc;
          Alcotest.test_case "bug found" `Quick test_mutex_bug_found;
        ] );
      ( "abp",
        [
          Alcotest.test_case "happy path" `Quick test_abp_happy_path;
          Alcotest.test_case "duplicate filtered" `Quick
            test_abp_duplicate_filtered;
          Alcotest.test_case "bug duplicates" `Quick test_abp_bug_duplicates;
          Alcotest.test_case "needs FIFO (classic)" `Quick test_abp_needs_fifo;
          Alcotest.test_case "safe under FIFO" `Quick test_abp_fifo_safe;
          Alcotest.test_case "FIFO bug found by LMC" `Quick
            test_abp_fifo_bug_found_by_lmc;
          Alcotest.test_case "bug visibility across checkers" `Quick
            test_abp_bug_visibility;
        ] );
    ]
