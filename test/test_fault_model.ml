(* Tests for the fault-model algebra and weighted targeting refactor:
   model spec parsing, per-model campaign smoke, targeting-policy weight
   validation, the refactor-invariance property (legacy config byte-identical
   across worker counts), and journal-format compatibility — a v1 (pre-refactor)
   journal must resume cleanly and reproduce the pre-refactor records
   bit for bit. *)

open Ferrite_injection
module Image = Ferrite_kir.Image
module Boot = Ferrite_kernel.Boot
module Rng = Ferrite_machine.Rng
module Tracer = Ferrite_trace.Tracer
module Event = Ferrite_trace.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp f =
  let path = Filename.temp_file "ferrite-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* byte-identity per element: marshaling whole lists is confounded by
   physical sharing (string literals shared across fresh trials, never
   across unmarshaled journal entries), which is invisible to consumers *)
let same_list a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Marshal.to_string x [] = Marshal.to_string y []) a b

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* ---------- the algebra: parsing, tags, validation ---------- *)

let all_models =
  [
    Fault_model.Single_bit_transient;
    Fault_model.Multi_bit { width = 2 };
    Fault_model.Multi_bit { width = 4 };
    Fault_model.Burst { span = 3 };
    Fault_model.Stuck_at { value = 0 };
    Fault_model.Stuck_at { value = 1 };
    Fault_model.Intermittent { period = 8; duty = 4; seed = 0L };
    Fault_model.Tlb_entry;
    Fault_model.Decode_cache_line;
  ]

let test_tag_roundtrip () =
  List.iter
    (fun m ->
      match Fault_model.of_string (Fault_model.tag m) with
      | Ok m' -> check_bool ("roundtrips: " ^ Fault_model.tag m) true (m = m')
      | Error e -> Alcotest.failf "tag %s does not parse back: %s" (Fault_model.tag m) e)
    all_models

let test_of_string_aliases () =
  let expect s m =
    match Fault_model.of_string s with
    | Ok m' -> check_bool ("alias " ^ s) true (m = m')
    | Error e -> Alcotest.failf "alias %s rejected: %s" s e
  in
  expect "single-bit" Fault_model.Single_bit_transient;
  expect "single" Fault_model.Single_bit_transient;
  (* the acceptance spelling: --fault-model stuck_at *)
  expect "stuck_at" (Fault_model.Stuck_at { value = 0 });
  expect "stuck_at:1" (Fault_model.Stuck_at { value = 1 });
  expect "multi_bit" (Fault_model.Multi_bit { width = 2 });
  expect "burst" (Fault_model.Burst { span = 3 });
  expect "intermittent" (Fault_model.Intermittent { period = 8; duty = 4; seed = 0L });
  expect "tlb_entry" Fault_model.Tlb_entry;
  expect "decode-line" Fault_model.Decode_cache_line;
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true (Result.is_error (Fault_model.of_string s)))
    [ ""; "nonsense"; "multi:0"; "multi:33"; "stuck:2"; "intermittent:0:1"; "intermittent:4:9" ]

let test_validated_rejects_nonsense () =
  let raises m =
    match Fault_model.validated m with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "width 0" true (raises (Fault_model.Multi_bit { width = 0 }));
  check_bool "width 33" true (raises (Fault_model.Multi_bit { width = 33 }));
  check_bool "span 0" true (raises (Fault_model.Burst { span = 0 }));
  check_bool "value 2" true (raises (Fault_model.Stuck_at { value = 2 }));
  check_bool "period 0" true
    (raises (Fault_model.Intermittent { period = 0; duty = 1; seed = 0L }));
  check_bool "duty > period" true
    (raises (Fault_model.Intermittent { period = 4; duty = 5; seed = 0L }));
  List.iter (fun m -> check_bool "valid passes" true (Fault_model.validated m = m)) all_models

(* ---------- per-model write-hit / dormancy semantics ----------

   Drive an instance directly against a fake one-word target so the exact
   corruption semantics — what a workload overwrite leaves behind, whether a
   dormant fault blocks activation, whether a no-op apply counts — are
   pinned without a whole campaign in the way. *)

let fake_word ?(initial = 0) () =
  let word = ref initial in
  let ops =
    {
      Fault_model.o_flip = (fun _ bit -> word := !word lxor (1 lsl bit));
      o_get = (fun _ bit -> (!word lsr bit) land 1);
      o_swap_pages = (fun _ _ -> ());
      o_partner = (fun _ -> None);
      o_emit = (fun _ -> ());
    }
  in
  (word, ops)

let bit_of word b = (!word lsr b) land 1

let test_stuck_at_write_hit () =
  (* bit 5 starts at 1; stuck-at-0 forces it low and must keep it low
     whatever the workload writes — including the stuck value itself *)
  let word, ops = fake_word ~initial:(1 lsl 5) () in
  let fm = Fault_model.instantiate (Fault_model.Stuck_at { value = 0 }) ~fault_seed:1L in
  Fault_model.apply_mem fm ops ~space:Event.Data_space ~addr:0 ~bit:5 ~limit:32;
  check_int "forced low at arm" 0 (bit_of word 5);
  (* workload writes the stuck value: re-assert must NOT toggle it back up *)
  Fault_model.on_write_hit fm ops ~addr:0 ~bit:5;
  check_int "write of the stuck value stays stuck" 0 (bit_of word 5);
  (* workload writes the opposite value: re-assert forces it again *)
  word := 1 lsl 5;
  Fault_model.on_write_hit fm ops ~addr:0 ~bit:5;
  check_int "write of the opposite value re-stuck" 0 (bit_of word 5)

let test_multi_bit_write_hit () =
  (* an overwrite clobbers the whole word: every landed bit re-asserts, not
     just the primary one *)
  let word, ops = fake_word () in
  let fm = Fault_model.instantiate (Fault_model.Multi_bit { width = 3 }) ~fault_seed:7L in
  Fault_model.apply_mem fm ops ~space:Event.Data_space ~addr:0 ~bit:4 ~limit:32;
  let corrupted = !word in
  check_bool "three bits landed" true
    (corrupted land (1 lsl 4) <> 0
    && List.length (List.filter (fun b -> corrupted land (1 lsl b) <> 0) (List.init 32 Fun.id))
       = 3);
  word := 0;
  Fault_model.on_write_hit fm ops ~addr:0 ~bit:4;
  check_int "overwrite re-asserts every landed bit" corrupted !word

let test_intermittent_dormant_phase () =
  (* period 2 / duty 1 with phase 1: dormant in the arm window, asserted in
     the first tick window, restored in the second *)
  let model = Fault_model.Intermittent { period = 2; duty = 1; seed = 1L } in
  let word, ops = fake_word () in
  let fm = Fault_model.instantiate model ~fault_seed:0L in
  Fault_model.apply_mem fm ops ~space:Event.Data_space ~addr:0 ~bit:3 ~limit:32;
  check_int "dormant phase leaves the target clean" 0 !word;
  check_bool "dormant fault blocks activation" true (Fault_model.blocks_activation fm);
  Fault_model.on_write_hit fm ops ~addr:0 ~bit:3;
  check_int "dormant write hit asserts nothing" 0 !word;
  check_bool "tick asserts it" true (Fault_model.on_tick fm ops ~addr:0 ~bit:3);
  check_int "present" 1 (bit_of word 3);
  check_bool "asserted fault no longer blocks" false (Fault_model.blocks_activation fm);
  check_bool "next tick restores" false (Fault_model.on_tick fm ops ~addr:0 ~bit:3);
  check_int "clean again" 0 !word;
  (* the complementary phase is present at arm time *)
  let word2, ops2 = fake_word () in
  let fm2 = Fault_model.instantiate model ~fault_seed:1L in
  Fault_model.apply_mem fm2 ops2 ~space:Event.Data_space ~addr:0 ~bit:3 ~limit:32;
  check_int "present phase flips at arm" 1 (bit_of word2 3);
  check_bool "present fault does not block" false (Fault_model.blocks_activation fm2)

let test_apply_reg_reports_landing () =
  (* stuck-at whose bit already holds the value: nothing corrupted, no
     activation — until a tick re-forces a workload write *)
  let word, ops = fake_word ~initial:(1 lsl 3) () in
  let fm = Fault_model.instantiate (Fault_model.Stuck_at { value = 1 }) ~fault_seed:2L in
  check_bool "no-op apply reports no landing" false
    (Fault_model.apply_reg fm ops ~reg:"r3" ~index:0 ~bit:3 ~bits:32);
  check_int "register untouched" (1 lsl 3) !word;
  check_bool "clean tick is quiet" false (Fault_model.on_tick fm ops ~addr:0 ~bit:3);
  word := 0;
  check_bool "tick re-forces a cleared bit and reports it" true
    (Fault_model.on_tick fm ops ~addr:0 ~bit:3);
  check_int "re-forced" 1 (bit_of word 3);
  (* and a plain single-bit apply always lands *)
  let _, ops2 = fake_word () in
  let fm2 = Fault_model.instantiate Fault_model.Single_bit_transient ~fault_seed:2L in
  check_bool "legacy apply lands" true
    (Fault_model.apply_reg fm2 ops2 ~reg:"r3" ~index:0 ~bit:3 ~bits:32)

(* ---------- targeting-policy weight validation ---------- *)

let test_generate_validates_weights () =
  let sys = Boot.boot Image.Cisc in
  let hot = [ ("kmemcpy", 0.4); ("schedule", 0.3); ("getblk", 0.3) ] in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let rng () = Rng.create ~seed:55L in
  check_bool "empty hot distribution" true
    (raises (fun () -> Target.generate sys Target.Code ~hot:[] (rng ())));
  check_bool "negative weight" true
    (raises (fun () ->
         Target.generate sys Target.Code ~hot:[ ("schedule", -1.0) ] (rng ())));
  check_bool "zero weight" true
    (raises (fun () ->
         Target.generate sys Target.Code ~hot:[ ("schedule", 0.0) ] (rng ())));
  check_bool "nan weight" true
    (raises (fun () ->
         Target.generate sys Target.Code ~hot:[ ("schedule", Float.nan) ] (rng ())));
  check_bool "empty density table" true
    (raises (fun () ->
         Target.generate sys Target.Data ~targeting:(Target.Density_weighted []) ~hot
           (rng ())));
  check_bool "bad density weight" true
    (raises (fun () ->
         Target.generate sys Target.Data
           ~targeting:(Target.Density_weighted [ ("fs", -2.0) ])
           ~hot (rng ())));
  (* the validation consumes no randomness: a draw after a rejected call
     equals the draw from a fresh stream *)
  let r = rng () in
  (try ignore (Target.generate sys Target.Code ~hot:[] r) with Invalid_argument _ -> ());
  let after_reject = Target.generate sys Target.Code ~hot r in
  let fresh = Target.generate sys Target.Code ~hot (rng ()) in
  check_bool "rejected call left the stream untouched" true (after_reject = fresh)

let test_targeting_tags () =
  (* uniform/profile tags parse back; the density tag spells out its table
     (it feeds the plan fingerprint), so only the plain name is accepted *)
  List.iter
    (fun t ->
      match Target.targeting_of_string (Target.targeting_tag t) with
      | Ok t' ->
        check_string "targeting roundtrip" (Target.targeting_tag t) (Target.targeting_tag t')
      | Error e -> Alcotest.failf "targeting tag rejected: %s" e)
    [ Target.Uniform; Target.Profile_weighted ];
  (match Target.targeting_of_string "density" with
  | Ok (Target.Density_weighted table) ->
    check_bool "density parses to the default table" true (table = Target.default_density)
  | Ok _ -> Alcotest.fail "density parsed to a non-density policy"
  | Error e -> Alcotest.failf "density rejected: %s" e);
  check_bool "density tag names its table" true
    (String.length (Target.targeting_tag (Target.Density_weighted Target.default_density)) > 8);
  check_bool "unknown policy rejected" true
    (Result.is_error (Target.targeting_of_string "everywhere"))

(* ---------- per-model campaign smoke ---------- *)

let test_models_run_and_tag_records () =
  List.iter
    (fun (kind, model) ->
      let cfg =
        {
          (Campaign.default ~arch:Image.Cisc ~kind ~injections:3) with
          Campaign.seed = 0x90DEL;
          fault_model = model;
        }
      in
      let res = Campaign.run cfg in
      check_int
        (Printf.sprintf "%s: all trials ran" (Fault_model.tag model))
        3
        (List.length res.Campaign.records);
      List.iter
        (fun r ->
          check_bool "record carries the model" true (r.Outcome.r_model = model))
        res.Campaign.records;
      match Campaign.group_by_model res with
      | [ (tag, records) ] ->
        check_string "single bucket, right tag" (Fault_model.tag model) tag;
        check_int "bucket holds every record" 3 (List.length records)
      | groups -> Alcotest.failf "expected one model bucket, got %d" (List.length groups))
    [
      (Target.Stack, Fault_model.Multi_bit { width = 2 });
      (Target.Stack, Fault_model.Burst { span = 3 });
      (Target.Stack, Fault_model.Stuck_at { value = 1 });
      (Target.Stack, Fault_model.Intermittent { period = 8; duty = 4; seed = 0L });
      (Target.Data, Fault_model.Tlb_entry);
      (Target.Code, Fault_model.Decode_cache_line);
      (Target.Register, Fault_model.Stuck_at { value = 0 });
      (Target.Register, Fault_model.Tlb_entry);
    ]

let test_targeting_policies_run () =
  List.iter
    (fun kind ->
      List.iter
        (fun targeting ->
          let cfg =
            {
              (Campaign.default ~arch:Image.Risc ~kind ~injections:3) with
              Campaign.seed = 0x7A6L;
              targeting;
            }
          in
          let res = Campaign.run cfg in
          check_int
            (Printf.sprintf "%s/%s ran" (Target.targeting_tag targeting)
               (match kind with
               | Target.Stack -> "stack"
               | Target.Data -> "data"
               | Target.Code -> "code"
               | Target.Register -> "register"))
            3
            (List.length res.Campaign.records))
        [ Target.Profile_weighted; Target.Density_weighted Target.default_density ])
    [ Target.Stack; Target.Data; Target.Code; Target.Register ]

(* ---------- refactor invariance (satellite: the qcheck property) ---------- *)

(* The legacy configuration (Single_bit_transient, Uniform) must produce
   byte-identical campaigns — records, collector stats, traces, telemetry —
   whatever the worker count: the refactored engine may not perturb the paper's
   runs. Seeds/kind/arch are drawn by qcheck. *)
let prop_refactor_invariance =
  let arb =
    QCheck.(
      triple (int_bound 0xFFFF) (int_bound 3) bool)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"legacy config is executor-invariant" ~count:4 arb
       (fun (seed, kind_ix, cisc) ->
         let kind =
           [| Target.Stack; Target.Data; Target.Code; Target.Register |].(kind_ix)
         in
         let arch = if cisc then Image.Cisc else Image.Risc in
         let cfg =
           {
             (Campaign.default ~arch ~kind ~injections:6) with
             Campaign.seed = Int64.of_int (0x1000 + seed);
           }
         in
         check_bool "legacy model in default config" true
           (cfg.Campaign.fault_model = Fault_model.Single_bit_transient
           && cfg.Campaign.targeting = Target.Uniform);
         (* No_sharing: results decoded off the fabric wire are equal values
            with a different heap sharing layout *)
         let view (r : Campaign.result) =
           Marshal.to_string
             (r.Campaign.records, r.Campaign.collector, r.Campaign.traces,
              Ferrite_trace.Telemetry.with_boots r.Campaign.telemetry 0)
             [ Marshal.No_sharing ]
         in
         let run workers =
           view (fst (Ferrite_fabric.Fabric.run ~workers ~tracer:Tracer.default_config cfg))
         in
         let j1 = run 1 in
         j1 = run 2 && j1 = run 3))

let test_model_campaign_executor_invariant () =
  (* same invariance for a non-legacy cell: the per-trial fault stream is in
     the spec, so a worker fleet cannot reorder its draws *)
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:8) with
      Campaign.seed = 0x5EEDL;
      fault_model = Fault_model.Stuck_at { value = 1 };
      targeting = Target.Profile_weighted;
    }
  in
  let rs = Campaign.run cfg in
  let rp, _ = Ferrite_fabric.Fabric.run ~workers:3 cfg in
  check_bool "records identical" true (rs.Campaign.records = rp.Campaign.records);
  check_bool "collector identical" true (rs.Campaign.collector = rp.Campaign.collector)

(* ---------- journal-format compatibility ---------- *)

let golden_cfg ~arch ~kind =
  { (Campaign.default ~arch ~kind ~injections:12) with Campaign.seed = 0x600DL }

let golden_supervision = { Campaign.default_supervision with Campaign.sv_journal = None }

let golden_hash ~sv cfg =
  Journal.plan_hash_of_string (Campaign.plan_fingerprint ~supervision:sv cfg)

(* The goldens under test/golden were written by the pre-refactor injector:
   recovering them exercises the v1 decode path, and resuming them against
   the refactored engine proves the legacy config reproduces the
   pre-refactor records bit for bit. The fixtures are copied first because
   [open_for_append] migrates a v1 file to v2 in place. *)
let v1_golden_cases =
  [
    ("golden/v1-p4-stack.journal", Image.Cisc, Target.Stack);
    ("golden/v1-g4-code.journal", Image.Risc, Target.Code);
  ]

let test_v1_recover () =
  List.iter
    (fun (path, arch, kind) ->
      let cfg = golden_cfg ~arch ~kind in
      let sv = { golden_supervision with Campaign.sv_journal = Some path } in
      let rc = Journal.recover ~path ~plan_hash:(golden_hash ~sv cfg) in
      check_int (path ^ ": v1 format detected") 1 rc.Journal.rc_format;
      check_int (path ^ ": all trials recovered") 12 (List.length rc.Journal.rc_entries);
      check_int (path ^ ": no torn tail") 0 rc.Journal.rc_truncated_bytes;
      List.iteri
        (fun i e ->
          check_int "entries in order" i e.Journal.je_index;
          check_bool "upgraded to the legacy model" true
            (e.Journal.je_record.Outcome.r_model = Fault_model.Single_bit_transient))
        rc.Journal.rc_entries)
    v1_golden_cases

let test_v1_resume_matches_fresh_run () =
  List.iter
    (fun (path, arch, kind) ->
      with_temp (fun tmp ->
          copy_file path tmp;
          let cfg = golden_cfg ~arch ~kind in
          let resumed =
            Campaign.run ~tracer:Tracer.default_config
              ~supervision:
                {
                  golden_supervision with
                  Campaign.sv_journal = Some tmp;
                  sv_resume = true;
                }
              cfg
          in
          (match resumed.Campaign.supervision with
          | Some sup -> check_int (path ^ ": served from journal") 12 sup.Supervisor.sup_resume_skips
          | None -> Alcotest.fail "supervised run lost its report");
          let fresh = Campaign.run ~tracer:Tracer.default_config ~supervision:golden_supervision cfg in
          check_bool (path ^ ": records match the pre-refactor run") true
            (same_list resumed.Campaign.records fresh.Campaign.records);
          check_bool (path ^ ": collector stats match") true
            (resumed.Campaign.collector = fresh.Campaign.collector);
          check_bool (path ^ ": traces match") true
            (same_list resumed.Campaign.traces fresh.Campaign.traces);
          (* the resume migrated the file: a second recovery sees v2 with the
             same entries *)
          let sv = { golden_supervision with Campaign.sv_journal = Some tmp } in
          let rc = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
          check_int (path ^ ": migrated to v2") 2 rc.Journal.rc_format;
          check_int (path ^ ": entries preserved") 12 (List.length rc.Journal.rc_entries)))
    v1_golden_cases

let test_v1_interrupted_resume () =
  (* resume a v1 journal holding only a prefix of the campaign: the missing
     trials are re-run by the refactored engine, and the merged result still
     equals an uninterrupted run *)
  let path, arch, kind = List.hd v1_golden_cases in
  with_temp (fun tmp ->
      copy_file path tmp;
      let cfg = golden_cfg ~arch ~kind in
      let sv = { golden_supervision with Campaign.sv_journal = Some tmp } in
      let rc = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      (* keep the first 5 frames: truncate at the 5th entry's end offset by
         re-writing the file through the migrating writer, then cutting *)
      check_bool "fixture has enough frames" true (List.length rc.Journal.rc_entries > 5);
      let writer, _ = Journal.open_for_append ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      Journal.close writer;
      (* now v2: locate the end of frame 5 by recovering and re-framing *)
      let rc2 = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      check_int "migration kept the entries" 12 (List.length rc2.Journal.rc_entries);
      let keep = 5 in
      let tmp2 = tmp ^ ".prefix" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp2 with Sys_error _ -> ())
        (fun () ->
          let writer, _ =
            Journal.open_for_append ~path:tmp2 ~plan_hash:(golden_hash ~sv cfg)
          in
          List.iteri
            (fun i e -> if i < keep then Journal.append writer e)
            rc2.Journal.rc_entries;
          Journal.close writer;
          let resumed =
            Campaign.run ~tracer:Tracer.default_config
              ~supervision:
                {
                  golden_supervision with
                  Campaign.sv_journal = Some tmp2;
                  sv_resume = true;
                }
              cfg
          in
          (match resumed.Campaign.supervision with
          | Some sup -> check_int "prefix served from journal" keep sup.Supervisor.sup_resume_skips
          | None -> Alcotest.fail "supervised run lost its report");
          let fresh =
            Campaign.run ~tracer:Tracer.default_config ~supervision:golden_supervision cfg
          in
          check_bool "merged records equal the uninterrupted run" true
            (same_list resumed.Campaign.records fresh.Campaign.records);
          check_bool "merged traces equal the uninterrupted run" true
            (same_list resumed.Campaign.traces fresh.Campaign.traces)))

let test_mixed_model_journal_roundtrip () =
  (* a journal whose entries carry different fault models (as a matrix sweep
     writes) survives append/recover/append cycles with the model tags intact *)
  let stamp = { Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None } in
  let mk_entry i model =
    let tracer = Tracer.create Tracer.default_config in
    Tracer.record tracer stamp (Event.Trial_begin { trial = i; target = "t" });
    {
      Journal.je_index = i;
      je_record =
        {
          Outcome.r_target = Target.Data_target { addr = 4 * i; bit = i mod 8 };
          r_outcome = Outcome.Not_manifested;
          r_activated = true;
          r_activation_cycle = Some i;
          r_model = model;
        };
      je_stats =
        {
          Collector.st_received = 1;
          st_lost = 0;
          st_retransmitted = 0;
          st_gave_up = 0;
          st_dup_dropped = 0;
          st_by_model = [ (Fault_model.tag model, 1) ];
        };
      je_trace = Tracer.trial_of tracer ~index:i ~target:"t" ~outcome:"ok";
    }
  in
  let models = Array.of_list all_models in
  let entries = List.init (Array.length models) (fun i -> mk_entry i models.(i)) in
  with_temp (fun path ->
      Sys.remove path;
      let hash = 0x4D17EDL in
      let writer, _ = Journal.open_for_append ~path ~plan_hash:hash in
      List.iter (Journal.append writer) (List.filteri (fun i _ -> i < 5) entries);
      Journal.close writer;
      let writer, rc = Journal.open_for_append ~path ~plan_hash:hash in
      check_int "first batch recovered" 5 (List.length rc.Journal.rc_entries);
      List.iter (Journal.append writer) (List.filteri (fun i _ -> i >= 5) entries);
      Journal.close writer;
      let rc = Journal.recover ~path ~plan_hash:hash in
      check_int "v2 format" 2 rc.Journal.rc_format;
      check_int "every entry back" (List.length entries) (List.length rc.Journal.rc_entries);
      List.iter2
        (fun a b ->
          check_bool "model tag survived" true
            (a.Journal.je_record.Outcome.r_model = b.Journal.je_record.Outcome.r_model);
          check_bool "entry roundtrips byte-exactly" true
            (Marshal.to_string a [] = Marshal.to_string b []))
        entries rc.Journal.rc_entries)

(* ---------- the per-model report breakout ---------- *)

let test_model_breakout_renders () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:5) with
      Campaign.seed = 0xB0DEL;
      fault_model = Fault_model.Stuck_at { value = 0 };
      targeting = Target.Profile_weighted;
    }
  in
  let res = Campaign.run cfg in
  let text = Ferrite.Report.model_breakout res in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "breakout names the model" true (contains text "stuck:0");
  check_bool "breakout carries the Table 5/6 columns" true (contains text "Known Crash")

let () =
  Alcotest.run "ferrite_fault_model"
    [
      ( "algebra",
        [
          Alcotest.test_case "tag roundtrip" `Quick test_tag_roundtrip;
          Alcotest.test_case "of_string aliases" `Quick test_of_string_aliases;
          Alcotest.test_case "validated rejects nonsense" `Quick test_validated_rejects_nonsense;
        ] );
      ( "model semantics",
        [
          Alcotest.test_case "stuck-at write hit" `Quick test_stuck_at_write_hit;
          Alcotest.test_case "multi-bit write hit" `Quick test_multi_bit_write_hit;
          Alcotest.test_case "intermittent dormant phase" `Quick test_intermittent_dormant_phase;
          Alcotest.test_case "apply_reg reports landing" `Quick test_apply_reg_reports_landing;
        ] );
      ( "targeting",
        [
          Alcotest.test_case "generate validates weights" `Quick test_generate_validates_weights;
          Alcotest.test_case "policy tags" `Quick test_targeting_tags;
          Alcotest.test_case "policies run" `Quick test_targeting_policies_run;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "models run and tag records" `Quick test_models_run_and_tag_records;
          prop_refactor_invariance;
          Alcotest.test_case "model campaign executor-invariant" `Quick
            test_model_campaign_executor_invariant;
          Alcotest.test_case "breakout renders" `Quick test_model_breakout_renders;
        ] );
      ( "journal compat",
        [
          Alcotest.test_case "v1 golden recovers" `Quick test_v1_recover;
          Alcotest.test_case "v1 golden resumes bit-identically" `Quick
            test_v1_resume_matches_fresh_run;
          Alcotest.test_case "v1 prefix resume" `Quick test_v1_interrupted_resume;
          Alcotest.test_case "mixed-model journal roundtrip" `Quick
            test_mixed_model_journal_roundtrip;
        ] );
    ]
