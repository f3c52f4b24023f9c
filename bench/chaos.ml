(* chaos-smoke: the supervision layer proving in CI that it survives the
   chaos it creates. Part of @ci.

   Three drills, each seconds-scale:

   1. Containment — plant one always-raising trial, one raise-once trial and
      one deadline-overrun trial. The campaign must complete with exactly one
      quarantined Infrastructure_failure, every other record byte-identical
      to an undisturbed run, identical results and supervision counts on
      one worker and on a 2-worker fabric, and summary percentages computed
      over non-quarantined trials only.

   2. Checkpoint/resume — journal an undisturbed run, tear its tail at a
      few truncation points that leave a partial frame, then resume on one
      worker or on a 2-worker fabric. Every resume must reproduce the
      uninterrupted run's records, collector stats, traces and telemetry
      byte for byte.

   3. Collector outage — the full seeded drill plan, outage window included:
      the campaign must still complete, and no trial inside the window can
      report a Known_crash (its dump cannot have been delivered). *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Fabric = Ferrite_fabric.Fabric
module Supervisor = Ferrite_injection.Supervisor
module Outcome = Ferrite_injection.Outcome
module Telemetry = Ferrite_trace.Telemetry

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("chaos-smoke: " ^ s); exit 1) fmt

let cfg =
  { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:24) with
    Campaign.seed = 0x2004L }

(* tl_boots is the one telemetry field allowed to differ between worker counts
   (and between a resumed and an uninterrupted run, which boots fewer
   machines) — normalize it away before comparing. *)
let boots_blind t = Telemetry.with_boots t 0

let quarantined r = Outcome.is_infrastructure r.Outcome.r_outcome

(* --- drill 1: containment --- *)

let containment () =
  let dead = 5 and flaky = 9 and slow = 14 in
  let chaos =
    {
      Supervisor.ch_raise = [ (dead, Supervisor.always); (flaky, 1) ];
      ch_overrun = [ (slow, 1) ];
      ch_outage = None;
    }
  in
  let supervision = { Campaign.default_supervision with Campaign.sv_chaos = chaos } in
  let undisturbed = Campaign.run cfg in
  let seq = Campaign.run ~supervision cfg in
  let par, _ = Fabric.run ~workers:2 ~supervision cfg in
  if seq.Campaign.records <> par.Campaign.records then
    fail "containment: records differ between --jobs 1 and --jobs 2";
  if seq.Campaign.traces <> par.Campaign.traces then
    fail "containment: traces differ between --jobs 1 and --jobs 2";
  if boots_blind seq.Campaign.telemetry <> boots_blind par.Campaign.telemetry then
    fail "containment: telemetry differs between --jobs 1 and --jobs 2";
  let q = List.filter quarantined seq.Campaign.records in
  (match q with
  | [ { Outcome.r_outcome = Outcome.Infrastructure_failure { if_attempts = 3; _ }; _ } ] ->
    ()
  | [ { Outcome.r_outcome = Outcome.Infrastructure_failure { if_attempts; _ }; _ } ] ->
    fail "containment: quarantined trial records %d attempts, wanted 3" if_attempts
  | _ -> fail "containment: %d quarantined trials, wanted exactly 1" (List.length q));
  List.iteri
    (fun i (r : Outcome.record) ->
      if i <> dead && r <> List.nth undisturbed.Campaign.records i then
        fail "containment: trial %d differs from the undisturbed run%s" i
          (if i = flaky || i = slow then " (retried trial not re-run from fresh boot?)"
           else ""))
    seq.Campaign.records;
  let s = Campaign.summarize seq in
  if s.Campaign.infrastructure <> 1 then
    fail "containment: summary reports %d infrastructure failures, wanted 1"
      s.Campaign.infrastructure;
  if s.Campaign.injected <> cfg.Campaign.injections - 1 then
    fail "containment: summary denominator %d still counts the quarantined trial"
      s.Campaign.injected;
  if
    s.Campaign.not_manifested + s.Campaign.fsv + s.Campaign.known_crash
    + s.Campaign.hang_or_unknown
    <> s.Campaign.activated
  then fail "containment: summary categories do not partition the activated set";
  List.iter
    (fun (jobs, (r : Campaign.result)) ->
      match r.Campaign.supervision with
      | Some sup ->
        if List.length sup.Supervisor.sup_quarantined <> 1 then
          fail "containment: --jobs %d supervisor report disagrees on quarantine count" jobs;
        (* dead burns 2 retries before quarantine; flaky and slow one each *)
        if sup.Supervisor.sup_retries <> 4 then
          fail "containment: --jobs %d recorded %d retries, wanted 4" jobs
            sup.Supervisor.sup_retries
      | None -> fail "containment: --jobs %d returned no supervision report" jobs)
    [ (1, seq); (2, par) ];
  Printf.printf
    "chaos-smoke: containment ok (1 quarantined of %d, retried trials clean, jobs 1 == jobs 2)\n"
    cfg.Campaign.injections

(* --- drill 2: checkpoint / resume after a torn tail --- *)

let with_temp f =
  let path = Filename.temp_file "ferrite-chaos" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let truncate_to path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd n;
  Unix.close fd

let resume () =
  let supervision path =
    { Campaign.default_supervision with
      Campaign.sv_journal = Some path;
      sv_resume = true }
  in
  let reference = Campaign.run cfg in
  with_temp (fun path ->
      let full = Campaign.run ~supervision:(supervision path) cfg in
      if full.Campaign.records <> reference.Campaign.records then
        fail "resume: journalled run differs from unsupervised run";
      let size = file_size path in
      (* Tear the tail at a few offsets: mid last frame, mid an earlier frame,
         and just past the header. Every recovery must re-run exactly the
         lost suffix and reproduce the reference bit for bit. *)
      List.iter
        (fun (cut, jobs, expect_entries) ->
          with_temp (fun copy ->
              let ic = open_in_bin path in
              let data = really_input_string ic size in
              close_in ic;
              let oc = open_out_bin copy in
              output_string oc data;
              close_out oc;
              truncate_to copy cut;
              let r, _ = Fabric.run ~workers:jobs ~supervision:(supervision copy) cfg in
              if r.Campaign.records <> reference.Campaign.records then
                fail "resume: cut=%d jobs=%d records differ from uninterrupted run" cut jobs;
              if r.Campaign.collector <> reference.Campaign.collector then
                fail "resume: cut=%d jobs=%d collector stats differ" cut jobs;
              if r.Campaign.traces <> reference.Campaign.traces then
                fail "resume: cut=%d jobs=%d traces differ" cut jobs;
              if boots_blind r.Campaign.telemetry <> boots_blind reference.Campaign.telemetry
              then fail "resume: cut=%d jobs=%d telemetry differs" cut jobs;
              match r.Campaign.supervision with
              | Some sup ->
                if sup.Supervisor.sup_resume_skips <> sup.Supervisor.sup_journal_entries
                then fail "resume: cut=%d not every recovered trial was skipped" cut;
                if expect_entries && sup.Supervisor.sup_journal_entries = 0 then
                  fail "resume: cut=%d recovered no entries from a journal prefix" cut
              | None -> fail "resume: supervised run returned no report"))
        (* header_size + 1 tears the *first* frame: a correct recovery finds
           zero entries and re-runs everything *)
        [
          (size - 3, 1, true);
          (size * 2 / 3, 2, true);
          (Ferrite_injection.Journal.header_size + 1, 2, false);
        ]);
  Printf.printf "chaos-smoke: resume ok (torn tails recovered; jobs 1/2 identical)\n"

(* --- drill 3: collector outage window --- *)

let outage () =
  let chaos = Supervisor.drill_plan ~seed:cfg.Campaign.seed ~injections:cfg.Campaign.injections in
  let lo, hi =
    match chaos.Supervisor.ch_outage with
    | Some w -> w
    | None -> fail "outage: drill plan for %d injections has no outage window" cfg.Campaign.injections
  in
  let supervision = { Campaign.default_supervision with Campaign.sv_chaos = chaos } in
  let r = Campaign.run ~supervision cfg in
  if List.length r.Campaign.records <> cfg.Campaign.injections then
    fail "outage: campaign did not complete";
  List.iteri
    (fun i (rec_ : Outcome.record) ->
      match rec_.Outcome.r_outcome with
      | Outcome.Known_crash _ when i >= lo && i < hi ->
        fail "outage: trial %d reports a Known_crash inside the outage window [%d,%d)" i lo hi
      | _ -> ())
    r.Campaign.records;
  Printf.printf "chaos-smoke: outage ok (window [%d,%d) delivered no crash dumps)\n" lo hi

let () =
  containment ();
  resume ();
  outage ()
