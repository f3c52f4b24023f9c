(* Tests for the supervision layer: journal framing and torn-tail recovery,
   checkpoint/resume (including a SIGKILL mid-run), crash containment with
   retry and quarantine, and plan-hash binding. *)

open Ferrite_injection
module Image = Ferrite_kir.Image
module Tracer = Ferrite_trace.Tracer
module Event = Ferrite_trace.Event
module Telemetry = Ferrite_trace.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_temp f =
  let path = Filename.temp_file "ferrite-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let truncate_to path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd n;
  Unix.close fd

let stamp = { Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None }

(* a small but structurally rich entry: record + stats + a non-empty trace *)
let mk_entry i =
  let tracer = Tracer.create Tracer.default_config in
  Tracer.record tracer stamp (Event.Trial_begin { trial = i; target = "t" });
  Tracer.record tracer stamp (Event.Trial_end { trial = i; outcome = "ok" });
  {
    Journal.je_index = i;
    je_record =
      {
        Outcome.r_target = Target.Data_target { addr = 4 * i; bit = i mod 8 };
        r_outcome = (if i mod 2 = 0 then Outcome.Not_manifested else Outcome.Hang);
        r_activated = true;
        r_activation_cycle = Some (100 + i);
        r_model = Ferrite_injection.Fault_model.Single_bit_transient;
      };
    je_stats =
      {
        Collector.st_received = i;
        st_lost = i mod 3;
        st_retransmitted = 0;
        st_gave_up = 0;
        st_dup_dropped = 0;
        st_by_model = (if i > 0 then [ ("single_bit", i) ] else []);
      };
    je_trace = Tracer.trial_of tracer ~index:i ~target:"t" ~outcome:"ok";
  }

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------- journal framing ---------- *)

let test_journal_roundtrip () =
  with_temp (fun path ->
      let hash = Journal.plan_hash_of_string "roundtrip" in
      let w, rc = Journal.open_for_append ~path ~plan_hash:hash in
      check_int "fresh journal recovers nothing" 0 (List.length rc.Journal.rc_entries);
      let entries = List.init 5 mk_entry in
      List.iter (Journal.append w) entries;
      Journal.close w;
      let rc = Journal.recover ~path ~plan_hash:hash in
      check_bool "entries round-trip" true (rc.Journal.rc_entries = entries);
      check_int "nothing truncated" 0 rc.Journal.rc_truncated_bytes;
      check_int "valid bytes = file size" (file_size path) rc.Journal.rc_valid_bytes;
      (* reopening appends after the existing frames *)
      let w, rc2 = Journal.open_for_append ~path ~plan_hash:hash in
      check_int "reopen preserves entries" 5 (List.length rc2.Journal.rc_entries);
      Journal.append w (mk_entry 5);
      Journal.close w;
      let rc3 = Journal.recover ~path ~plan_hash:hash in
      check_bool "append after reopen" true (rc3.Journal.rc_entries = List.init 6 mk_entry))

(* The checkpoint property: however the file is cut (mid-frame, mid-header,
   inside appended garbage), recovery returns the longest valid prefix of
   what was appended and never raises. *)
let prop_journal_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"recovery of a torn journal is the longest valid prefix"
       ~count:80
       QCheck.(triple (int_range 0 6) (int_range 0 10_000) (int_range 0 48))
       (fun (k, cut_frac, garbage) ->
         with_temp (fun path ->
             let hash = Journal.plan_hash_of_string "torn" in
             let w, _ = Journal.open_for_append ~path ~plan_hash:hash in
             let entries = List.init k mk_entry in
             List.iter (Journal.append w) entries;
             Journal.close w;
             let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
             for i = 1 to garbage do
               output_char oc (Char.chr (i * 37 mod 256))
             done;
             close_out oc;
             let cut = cut_frac * file_size path / 10_000 in
             truncate_to path cut;
             let rc = Journal.recover ~path ~plan_hash:hash in
             let n = List.length rc.Journal.rc_entries in
             n <= k
             && rc.Journal.rc_entries = take n entries
             && rc.Journal.rc_valid_bytes + rc.Journal.rc_truncated_bytes = cut
             && (cut < Journal.header_size || rc.Journal.rc_valid_bytes >= Journal.header_size))))

let test_header_mismatch () =
  with_temp (fun path ->
      let w, _ = Journal.open_for_append ~path ~plan_hash:7L in
      Journal.append w (mk_entry 0);
      Journal.close w;
      (match Journal.recover ~path ~plan_hash:9L with
      | exception Journal.Header_mismatch { hm_expected = 9L; hm_found = 7L; _ } -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "mismatched plan hash accepted");
      match Journal.recover ~path ~plan_hash:7L with
      | rc -> check_int "matching hash still recovers" 1 (List.length rc.Journal.rc_entries))

let test_not_a_journal () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 64 'X');
      close_out oc;
      match Journal.recover ~path ~plan_hash:1L with
      | exception Journal.Not_a_journal _ -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "a foreign file was read as a journal")

(* ---------- containment ---------- *)

let small_cfg injections =
  { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections) with
    Campaign.seed = 0x2004L }

let supervision_with ?(policy = Supervisor.default_policy) ?(chaos = Supervisor.no_chaos)
    ?journal ?(resume = false) () =
  {
    Campaign.sv_policy = policy;
    sv_chaos = chaos;
    sv_journal = journal;
    sv_resume = resume;
  }

let test_flaky_trial_retried_clean () =
  let cfg = small_cfg 12 in
  let chaos = { Supervisor.no_chaos with Supervisor.ch_raise = [ (4, 1) ] } in
  let undisturbed = Campaign.run cfg in
  let r = Campaign.run ~supervision:(supervision_with ~chaos ()) cfg in
  check_bool "retried trial reproduces the undisturbed record" true
    (r.Campaign.records = undisturbed.Campaign.records);
  match r.Campaign.supervision with
  | Some sup ->
    check_int "one retry" 1 sup.Supervisor.sup_retries;
    check_int "no quarantine" 0 (List.length sup.Supervisor.sup_quarantined)
  | None -> Alcotest.fail "no supervision report"

let test_dead_trial_quarantined () =
  let cfg = small_cfg 12 in
  let chaos =
    { Supervisor.no_chaos with Supervisor.ch_raise = [ (2, Supervisor.always) ] }
  in
  let undisturbed = Campaign.run cfg in
  let r = Campaign.run ~supervision:(supervision_with ~chaos ()) cfg in
  (match (List.nth r.Campaign.records 2).Outcome.r_outcome with
  | Outcome.Infrastructure_failure { if_attempts; if_error } ->
    check_int "attempts = 1 + max_retries" 3 if_attempts;
    check_bool "reason names the planted fault" true (contains ~needle:"chaos" if_error)
  | o -> Alcotest.failf "expected quarantine, got %s" (Outcome.outcome_label o));
  List.iteri
    (fun i r ->
      if i <> 2 then
        check_bool (Printf.sprintf "trial %d undisturbed" i) true
          (r = List.nth undisturbed.Campaign.records i))
    r.Campaign.records;
  let s = Campaign.summarize r in
  check_int "quarantine excluded from the denominator" 11 s.Campaign.injected;
  check_int "quarantine surfaced separately" 1 s.Campaign.infrastructure

let test_host_deadline_overrun () =
  let cfg = small_cfg 3 in
  let policy =
    { Supervisor.sp_max_retries = 1; sp_host_deadline = Some 1e-9 }
  in
  let r = Campaign.run ~supervision:(supervision_with ~policy ()) cfg in
  List.iter
    (fun rec_ ->
      match rec_.Outcome.r_outcome with
      | Outcome.Infrastructure_failure { if_attempts = 2; if_error } ->
        check_bool "reason names the deadline" true (contains ~needle:"deadline" if_error)
      | o -> Alcotest.failf "expected deadline quarantine, got %s" (Outcome.outcome_label o))
    r.Campaign.records

let test_policy_validation () =
  check_bool "negative retries rejected" true
    (match
       Supervisor.validated_policy
         { Supervisor.default_policy with Supervisor.sp_max_retries = -1 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "non-positive deadline rejected" true
    (match
       Supervisor.validated_policy
         { Supervisor.default_policy with Supervisor.sp_host_deadline = Some 0.0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- checkpoint / resume ---------- *)

let boots_blind t = Telemetry.with_boots t 0

let check_resume_equal label (reference : Campaign.result) (r : Campaign.result) =
  check_bool (label ^ ": records") true (r.Campaign.records = reference.Campaign.records);
  check_bool (label ^ ": collector") true
    (r.Campaign.collector = reference.Campaign.collector);
  check_bool (label ^ ": traces") true (r.Campaign.traces = reference.Campaign.traces);
  check_bool (label ^ ": telemetry") true
    (boots_blind r.Campaign.telemetry = boots_blind reference.Campaign.telemetry)

(* Journal [cfg] under [supervision] in a forked child and SIGKILL it once a
   few frames have landed: what is left at [path] is a killed run's journal. *)
let journal_then_kill ~supervision cfg path =
  match Unix.fork () with
  | 0 ->
    (try ignore (Campaign.run ~supervision cfg) with _ -> ());
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 60.0 in
    let rec poll () =
      let sz = try file_size path with Sys_error _ -> 0 in
      if sz <= Journal.header_size + 64 && Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.01;
        poll ()
      end
    in
    poll ();
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* The golden resilience test: journal a run under --jobs 1, SIGKILL it
   mid-campaign, then resume on one worker and on 2- and 3-worker fabrics —
   every resume must equal the uninterrupted run bit for bit. *)
let test_kill_and_resume () =
  let cfg = small_cfg 40 in
  let reference = Campaign.run cfg in
  with_temp (fun path ->
      Sys.remove path;
      journal_then_kill ~supervision:(supervision_with ~journal:path ()) cfg path;
      let recovered =
        (Journal.recover ~path
           ~plan_hash:
             (Journal.plan_hash_of_string
                (Campaign.plan_fingerprint
                   ~supervision:(supervision_with ~journal:path ~resume:true ())
                   cfg)))
          .Journal.rc_entries
      in
      check_bool "the kill landed mid-run" true (List.length recovered < 40);
      List.iter
        (fun workers ->
          with_temp (fun copy ->
              copy_file path copy;
              let r, _ =
                Ferrite_fabric.Fabric.run ~workers
                  ~supervision:(supervision_with ~journal:copy ~resume:true ())
                  cfg
              in
              check_resume_equal (Printf.sprintf "%d worker(s)" workers) reference r))
        [ 1; 2; 3 ])

(* The supervision line ("R retried, Q quarantined, S resumed", plus the
   torn-tail bytes) must not depend on the worker count: on the CI chaos
   drill plan, a fresh run and a resume of a killed run report the same
   counts on one worker and on a 2-worker fabric. *)
let test_supervision_counts_jobs_invariant () =
  let cfg = small_cfg 24 in
  let chaos = Supervisor.drill_plan ~seed:cfg.Campaign.seed ~injections:24 in
  let counts label (r : Campaign.result) =
    match r.Campaign.supervision with
    | None -> Alcotest.failf "%s: no supervision report" label
    | Some sup ->
      ( sup.Supervisor.sup_retries,
        sup.Supervisor.sup_quarantined,
        sup.Supervisor.sup_resume_skips,
        sup.Supervisor.sup_journal_entries,
        sup.Supervisor.sup_journal_truncated )
  in
  let run ~workers supervision =
    counts (Printf.sprintf "%d worker(s)" workers)
      (fst (Ferrite_fabric.Fabric.run ~workers ~supervision cfg))
  in
  let fresh = supervision_with ~chaos () in
  let ((retries, quarantined, _, _, _) as j1) = run ~workers:1 fresh in
  check_bool "the drill retries and quarantines" true (retries > 0 && quarantined <> []);
  check_bool "fresh run: same counts at -j 1 and -j 2" true (j1 = run ~workers:2 fresh);
  with_temp (fun path ->
      Sys.remove path;
      journal_then_kill ~supervision:(supervision_with ~chaos ~journal:path ()) cfg path;
      let resume workers =
        with_temp (fun copy ->
            copy_file path copy;
            run ~workers (supervision_with ~chaos ~journal:copy ~resume:true ()))
      in
      let ((_, _, skips, entries, _) as r1) = resume 1 in
      check_bool "the resume served journalled trials" true (skips > 0 && skips = entries);
      check_bool "resumed run: same counts at -j 1 and -j 2" true (r1 = resume 2))

let test_resume_rejects_other_plan () =
  let cfg = small_cfg 10 in
  with_temp (fun path ->
      ignore (Campaign.run ~supervision:(supervision_with ~journal:path ()) cfg);
      let other = { cfg with Campaign.seed = 0xBADL } in
      match
        Campaign.run ~supervision:(supervision_with ~journal:path ~resume:true ()) other
      with
      | exception Journal.Header_mismatch _ -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "journal from a different seed accepted")

let test_fingerprint_is_jobs_independent () =
  let cfg = small_cfg 10 in
  (* the fingerprint is a function of the config alone — executors never
     appear in it, so this is mostly documentation-by-test *)
  check_bool "same config, same fingerprint" true
    (Campaign.plan_fingerprint cfg = Campaign.plan_fingerprint cfg);
  check_bool "seed changes it" true
    (Campaign.plan_fingerprint cfg
    <> Campaign.plan_fingerprint { cfg with Campaign.seed = 1L });
  check_bool "kind changes it" true
    (Campaign.plan_fingerprint cfg
    <> Campaign.plan_fingerprint { cfg with Campaign.kind = Target.Data });
  check_bool "chaos changes it" true
    (Campaign.plan_fingerprint cfg
    <> Campaign.plan_fingerprint
         ~supervision:
           (supervision_with
              ~chaos:{ Supervisor.no_chaos with Supervisor.ch_raise = [ (0, 1) ] }
              ())
         cfg)

let () =
  Alcotest.run "ferrite_supervisor"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          prop_journal_truncation;
          Alcotest.test_case "header mismatch" `Quick test_header_mismatch;
          Alcotest.test_case "not a journal" `Quick test_not_a_journal;
        ] );
      ( "containment",
        [
          Alcotest.test_case "flaky trial retried clean" `Quick test_flaky_trial_retried_clean;
          Alcotest.test_case "dead trial quarantined" `Quick test_dead_trial_quarantined;
          Alcotest.test_case "host deadline overrun" `Quick test_host_deadline_overrun;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "supervision counts jobs-invariant" `Quick
            test_supervision_counts_jobs_invariant;
          Alcotest.test_case "other plan rejected" `Quick test_resume_rejects_other_plan;
          Alcotest.test_case "fingerprint jobs-independent" `Quick
            test_fingerprint_is_jobs_independent;
        ] );
    ]
