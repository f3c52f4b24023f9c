(* The benchmark harness: regenerates every table and figure of the paper
   (the macro part), then times the machinery behind each experiment with
   Bechamel (the micro part — one Test.make per table/figure).

   Environment knobs:
     FERRITE_BENCH_SCALE  fraction of the paper's campaign sizes (default 0.15,
                          ~17,500 injections; 1.0 reproduces the full
                          115,000-injection study)
     FERRITE_BENCH_SEED   campaign seed (default 0x2004)
     FERRITE_SKIP_MICRO   set to skip the Bechamel micro-benchmarks *)

open Bechamel
module Image = Ferrite_kir.Image
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Engine = Ferrite_injection.Engine
module Collector = Ferrite_injection.Collector
module Fabric = Ferrite_fabric.Fabric
module Crash_cause = Ferrite_injection.Crash_cause
module Workload = Ferrite_workload.Workload
module Runner = Ferrite_workload.Runner
module Iofault = Ferrite_iofault.Iofault

let scale =
  match Sys.getenv_opt "FERRITE_BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.15)
  | None -> 0.15

let seed =
  match Sys.getenv_opt "FERRITE_BENCH_SEED" with
  | Some s -> (try Int64.of_string s with _ -> 0x2004L)
  | None -> 0x2004L

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Macro part: regenerate the paper                                    *)
(* ------------------------------------------------------------------ *)

let run_suites () =
  let progress name arch ~done_ ~total =
    if done_ mod 200 = 0 || done_ = total then
      Printf.eprintf "\r[%s %-6s] %6d/%-6d%!" arch name done_ total
  in
  let t0 = Unix.gettimeofday () in
  let p4 =
    Ferrite.Suite.run ~seed
      ~progress:(fun n -> progress n "P4")
      ~scale:(Ferrite.Suite.scaled Image.Cisc scale)
      Image.Cisc
  in
  Printf.eprintf "\n%!";
  let g4 =
    Ferrite.Suite.run ~seed
      ~progress:(fun n -> progress n "G4")
      ~scale:(Ferrite.Suite.scaled Image.Risc scale)
      Image.Risc
  in
  Printf.eprintf "\n%!";
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "Campaigns: %d injections on P4, %d on G4 (scale %.3f of the paper's counts) in %.1f s\n"
    (Ferrite.Suite.total_injections p4)
    (Ferrite.Suite.total_injections g4)
    scale dt;
  (p4, g4)

(* ------------------------------------------------------------------ *)
(* Campaign throughput: sequential vs a 2-worker process fabric        *)
(* ------------------------------------------------------------------ *)

let run_campaign_throughput () =
  let workers = 2 in
  let cores = Domain.recommended_domain_count () in
  (* two workers on one core take turns: that row is not a parallel run and
     must not be reported as a speedup *)
  let ran_parallel = cores >= workers in
  section (Printf.sprintf "Campaign throughput (sequential vs fabric/%d workers)" workers);
  let n = max 60 (int_of_float (1000.0 *. scale)) in
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:n) with
      Campaign.seed = seed }
  in
  let time f =
    (* isolate the measurement from whatever heap the macro phase left
       behind, and take the best of three repetitions so run-to-run noise
       (GC scheduling, CPU frequency) doesn't masquerade as a slowdown *)
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to 3 do
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let rs, ts = time (fun () -> Campaign.run cfg) in
  let r0, t0 =
    (* the precise-interpreter baseline for the superblock before/after *)
    Ferrite_machine.Memory.set_superblocks_default false;
    Fun.protect
      ~finally:(fun () -> Ferrite_machine.Memory.set_superblocks_default true)
      (fun () -> time (fun () -> Campaign.run cfg))
  in
  let (rp, fabric_report), tp = time (fun () -> Fabric.run_campaign ~workers cfg) in
  let rate t = float_of_int n /. t in
  let identical =
    rs.Campaign.records = rp.Campaign.records && rs.Campaign.records = r0.Campaign.records
  in
  let cache = rs.Campaign.cache in
  let sb_hit_rate = Ferrite_machine.Cache_stats.sb_hit_rate cache in
  Printf.printf "%-24s %10.1f inj/s   (%d injections in %.2f s)\n"
    "sequential" (rate ts) n ts;
  Printf.printf "%-24s %10.1f inj/s   (%d injections in %.2f s)\n"
    "sequential/no-superblocks" (rate t0) n t0;
  Printf.printf "%-24s %10.1f inj/s   (%d injections in %.2f s)\n"
    (Printf.sprintf "fabric/%d workers" workers)
    (rate tp) n tp;
  Printf.printf "superblock speedup %.2fx (sequential, translated vs precise)\n"
    (t0 /. ts);
  if ran_parallel then
    Printf.printf
      "parallel speedup %.2fx on %d worker process(es) (%d core(s)); records \
       identical: %b (%d fresh, %d duplicate(s) dropped)\n"
      (ts /. tp) workers cores identical fabric_report.Fabric.fb_results
      fabric_report.Fabric.fb_dup_results
  else
    Printf.printf
      "parallel speedup: n/a — %d worker process(es) shared %d core(s); records \
       identical: %b\n"
      workers cores identical;
  Printf.printf "caches (sequential run): %s\n"
    (Format.asprintf "%a" Ferrite_machine.Cache_stats.render cache);
  (* columnar store footprint and scan throughput over the same records *)
  let store_path = Filename.temp_file "ferrite_bench" ".fstore" in
  let w = Ferrite_store.Store.create store_path in
  Ferrite_injection.Result_store.append_result w rs;
  Ferrite_store.Store.close w;
  let store_bytes = (Unix.stat store_path).Unix.st_size in
  let _, scan_time =
    time (fun () -> Ferrite_injection.Result_store.aggregate store_path)
  in
  let store_rows = (Ferrite_store.Store.scan store_path).Ferrite_store.Store.sc_rows in
  Sys.remove store_path;
  let scan_rate = float_of_int store_rows /. scan_time in
  Printf.printf "store: %d rows in %d bytes (%.1f B/row), scanned at %.0f rows/s\n"
    store_rows store_bytes
    (float_of_int store_bytes /. float_of_int (max 1 store_rows))
    scan_rate;
  (* io-chaos: the fault shim's quiet cost and the counters from a
     recoverable chaotic run of the same journaled campaign. The "shim
     overhead" row arms a zero-rate plan so every journal/store syscall
     pays the per-call fault draw but no fault ever fires — that delta over
     the disarmed path is the price of leaving the layer compiled in. *)
  let journaled () =
    let path = Filename.temp_file "ferrite_bench" ".journal" in
    Sys.remove path;
    let sv =
      {
        Campaign.sv_policy = Ferrite_injection.Supervisor.default_policy;
        sv_chaos = Ferrite_injection.Supervisor.no_chaos;
        sv_journal = Some path;
        sv_resume = false;
      }
    in
    let r = Campaign.run ~supervision:sv cfg in
    Sys.remove path;
    r
  in
  let quiet_plan =
    {
      Iofault.pl_eintr = 0.0;
      pl_eagain = 0.0;
      pl_short_write = 0.0;
      pl_short_read = 0.0;
      pl_eio = 0.0;
      pl_fsync_fail = 0.0;
      pl_delay = 0.0;
      pl_delay_s = 0.0;
      pl_enospc_after = None;
    }
  in
  let _, t_plain = time journaled in
  Iofault.arm ~plan:quiet_plan ~seed:1L ();
  let _, t_quiet = Fun.protect ~finally:Iofault.disarm (fun () -> time journaled) in
  let shim_overhead_pct = (t_quiet -. t_plain) /. t_plain *. 100.0 in
  let shim_ok = shim_overhead_pct < 2.0 in
  let chaos_seed = 0x10FA17L in
  Iofault.reset_stats ();
  Iofault.arm ~plan:Iofault.recoverable_plan ~seed:chaos_seed ();
  let r_chaos =
    Fun.protect ~finally:Iofault.disarm (fun () -> journaled ())
  in
  let chaos_stats = Iofault.stats () in
  let chaos_identical = r_chaos.Campaign.records = rs.Campaign.records in
  Printf.printf
    "io-chaos: armed-but-quiet shim overhead %+.2f%% (gate <2%%: %b); \
     recoverable seed %Ld absorbed %d fault(s) via %d retries, records \
     identical: %b\n"
    shim_overhead_pct shim_ok chaos_seed chaos_stats.Iofault.st_faults
    chaos_stats.Iofault.st_retries chaos_identical;
  let oc = open_out "BENCH_campaign.json" in
  (* [parallel_speedup] is reported only when the workers actually ran in
     parallel: two workers taking turns on one core is measurement noise,
     not a speedup *)
  let parallel_speedup =
    if ran_parallel then Printf.sprintf "%.3f" (ts /. tp) else "null"
  in
  Printf.fprintf oc
    {|{
  "benchmark": "campaign-throughput",
  "arch": "p4",
  "kind": "stack",
  "injections": %d,
  "seed": %Ld,
  "fault_model": "%s",
  "targeting": "%s",
  "cores_available": %d,
  "sequential": { "seconds": %.3f, "injections_per_sec": %.2f },
  "sequential_no_superblocks": { "seconds": %.3f, "injections_per_sec": %.2f },
  "superblock_speedup": %.3f,
  "parallel": { "transport": "fabric", "workers": %d, "ran_parallel": %b, "seconds": %.3f, "injections_per_sec": %.2f, "fresh_results": %d, "duplicates_dropped": %d },
  "parallel_speedup": %s,
  "records_identical": %b,
  "superblocks": { "sb_blocks": %d, "sb_insns_retired": %d, "sb_fallbacks": %d, "sb_hit_rate": %.4f },
  "store": { "rows": %d, "bytes": %d, "bytes_per_row": %.2f, "scan_seconds": %.4f, "scan_rows_per_sec": %.0f },
  "io_chaos": { "shim_overhead_pct": %.2f, "shim_overhead_under_2pct": %b, "chaos_seed": %Ld, "faults": %d, "retries": %d, "eintr": %d, "eagain": %d, "short_writes": %d, "short_reads": %d, "delays": %d, "salvages": %d, "records_identical": %b },
  "cache": %s
}
|}
    n seed
    (Ferrite_injection.Fault_model.tag cfg.Campaign.fault_model)
    (Ferrite_injection.Target.targeting_tag cfg.Campaign.targeting)
    cores ts (rate ts) t0 (rate t0) (t0 /. ts)
    workers ran_parallel tp (rate tp) fabric_report.Fabric.fb_results
    fabric_report.Fabric.fb_dup_results parallel_speedup identical
    cache.Ferrite_machine.Cache_stats.cs_sb_blocks
    cache.Ferrite_machine.Cache_stats.cs_sb_insns
    cache.Ferrite_machine.Cache_stats.cs_sb_fallbacks sb_hit_rate store_rows
    store_bytes
    (float_of_int store_bytes /. float_of_int (max 1 store_rows))
    scan_time scan_rate shim_overhead_pct shim_ok chaos_seed
    chaos_stats.Iofault.st_faults chaos_stats.Iofault.st_retries
    chaos_stats.Iofault.st_eintr chaos_stats.Iofault.st_eagain
    chaos_stats.Iofault.st_short_writes chaos_stats.Iofault.st_short_reads
    chaos_stats.Iofault.st_delays chaos_stats.Iofault.st_salvages
    chaos_identical
    (Ferrite_machine.Cache_stats.to_json cache);
  close_out oc;
  Printf.printf "wrote BENCH_campaign.json\n"

(* ------------------------------------------------------------------ *)
(* Micro part: one Bechamel test per table/figure                      *)
(* ------------------------------------------------------------------ *)

let one_injection arch kind =
  (* a self-contained single injection, including the reboot — the unit of
     work behind every row of Tables 5 and 6 *)
  let image = Boot.build_image arch in
  let rng = Ferrite_machine.Rng.create ~seed:42L in
  let collector = Collector.create ~seed:7L () in
  let hot = [ ("kmemcpy", 0.5); ("schedule", 0.3); ("getblk", 0.2) ] in
  Staged.stage (fun () ->
      let sys = Boot.boot ~image arch in
      let wl = Workload.mix ~ops:12 () in
      let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
      let target = Target.generate sys kind ~hot rng in
      ignore (Engine.run_one ~sys ~runner ~target ~collector Engine.default_config))

let boot_test arch =
  let image = Boot.build_image arch in
  Staged.stage (fun () -> ignore (Boot.boot ~image arch))

let classify_test arch =
  let image = Boot.build_image arch in
  let sys = Boot.boot ~image arch in
  let fault =
    match arch with
    | Image.Cisc ->
      System.Cisc_fault (Ferrite_cisc.Exn.Page_fault { addr = 0x1234; write = false; fetch = false })
    | Image.Risc ->
      System.Risc_fault (Ferrite_risc.Exn.Dsi { addr = 0x1234; write = false; protection = false })
  in
  Staged.stage (fun () -> ignore (Crash_cause.classify sys fault))

let target_gen_test arch kind =
  let image = Boot.build_image arch in
  let sys = Boot.boot ~image arch in
  let rng = Ferrite_machine.Rng.create ~seed:11L in
  let hot = [ ("kmemcpy", 0.5); ("schedule", 0.3); ("getblk", 0.2) ] in
  Staged.stage (fun () -> ignore (Target.generate sys kind ~hot rng))

let decode_test arch =
  match arch with
  | Image.Risc ->
    let rng = Ferrite_machine.Rng.create ~seed:3L in
    Staged.stage (fun () ->
        match Ferrite_risc.Decode.word (Ferrite_machine.Rng.bits32 rng) with
        | _ -> ()
        | exception Ferrite_risc.Decode.Undefined_opcode -> ())
  | Image.Cisc ->
    let bytes = "\x8b\x73\x18\x8d\x65\xf4\x5b\x5e\x5f\x5d\xc3\x90\x90\x90\x90" in
    Staged.stage (fun () ->
        ignore (Ferrite_cisc.Decode.decode ~fetch:(fun i -> Char.code bytes.[i mod 15]) 0))

let latency_hist_test () =
  let rng = Ferrite_machine.Rng.create ~seed:5L in
  let samples = List.init 512 (fun _ -> Ferrite_machine.Rng.int rng 2_000_000_000) in
  Staged.stage (fun () -> ignore (Ferrite_stats.Latency_histogram.of_list samples))

let step_test arch =
  let image = Boot.build_image arch in
  let sys = Boot.boot ~image arch in
  Staged.stage (fun () ->
      for _ = 1 to 100 do
        ignore (System.step sys)
      done)

let micro_tests =
  [
    (* Table 1: platform bring-up *)
    Test.make ~name:"table1/boot-p4" (boot_test Image.Cisc);
    Test.make ~name:"table1/boot-g4" (boot_test Image.Risc);
    (* Tables 3/4: hardware->category classification *)
    Test.make ~name:"table3/classify-p4" (classify_test Image.Cisc);
    Test.make ~name:"table4/classify-g4" (classify_test Image.Risc);
    (* Table 5 rows: one full injection (boot + workload + injection) each *)
    Test.make ~name:"table5/stack-injection-p4" (one_injection Image.Cisc Target.Stack);
    Test.make ~name:"table5/sysreg-injection-p4" (one_injection Image.Cisc Target.Register);
    Test.make ~name:"table5/data-injection-p4" (one_injection Image.Cisc Target.Data);
    Test.make ~name:"table5/code-injection-p4" (one_injection Image.Cisc Target.Code);
    (* Table 6 rows *)
    Test.make ~name:"table6/stack-injection-g4" (one_injection Image.Risc Target.Stack);
    Test.make ~name:"table6/sysreg-injection-g4" (one_injection Image.Risc Target.Register);
    Test.make ~name:"table6/data-injection-g4" (one_injection Image.Risc Target.Data);
    Test.make ~name:"table6/code-injection-g4" (one_injection Image.Risc Target.Code);
    (* Figures 4/5 feed off the same crash streams; the decode paths are the
       mechanism behind the Invalid/Illegal Instruction splits (Fig. 11) *)
    Test.make ~name:"fig11/decode-cisc" (decode_test Image.Cisc);
    Test.make ~name:"fig11/decode-risc" (decode_test Image.Risc);
    (* Figures 6/10/12: target generation per campaign *)
    Test.make ~name:"fig6/gen-stack-target" (target_gen_test Image.Cisc Target.Stack);
    Test.make ~name:"fig10/gen-register-target" (target_gen_test Image.Risc Target.Register);
    Test.make ~name:"fig12/gen-data-target" (target_gen_test Image.Cisc Target.Data);
    (* Figure 16: latency histogram construction *)
    Test.make ~name:"fig16/latency-histogram" (latency_hist_test ());
    (* simulator throughput underlying everything *)
    Test.make ~name:"simulator/steps-x100-p4" (step_test Image.Cisc);
    Test.make ~name:"simulator/steps-x100-g4" (step_test Image.Risc);
  ]

let run_micro () =
  section "Micro-benchmarks (Bechamel, one test per table/figure)";
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 0.4) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-32s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock result in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            let pretty =
              if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
              else Printf.sprintf "%8.0f ns" ns
            in
            Printf.printf "%-32s %16s\n%!" (Test.Elt.name elt) pretty
          | _ -> Printf.printf "%-32s %16s\n%!" (Test.Elt.name elt) "n/a")
        (Test.elements test))
    micro_tests

(* ------------------------------------------------------------------ *)

let () =
  section "Ferrite benchmark harness — DSN 2004 error-sensitivity reproduction";
  let p4, g4 = run_suites () in
  section "Tables";
  print_endline (Ferrite.Report.table1 ());
  print_newline ();
  print_endline (Ferrite.Report.table2 ());
  print_newline ();
  print_endline (Ferrite.Report.table3 ());
  print_newline ();
  print_endline (Ferrite.Report.table4 ());
  print_newline ();
  print_endline (Ferrite.Report.table5 p4);
  print_newline ();
  print_endline (Ferrite.Report.table6 g4);
  section "Figures";
  print_endline (Ferrite.Report.fig4 p4);
  print_endline (Ferrite.Report.fig5 g4);
  print_endline (Ferrite.Report.fig6 ~p4 ~g4);
  print_endline (Ferrite.Report.fig10 ~p4 ~g4);
  print_endline (Ferrite.Report.fig11 ~p4 ~g4);
  print_endline (Ferrite.Report.fig12 ~p4 ~g4);
  print_endline (Ferrite.Report.fig16 ~p4 ~g4);
  print_newline ();
  print_endline (Ferrite.Report.data_geometry ());
  section "Shape checks";
  print_endline (Ferrite.Report.render_checks (Ferrite.Report.shape_checks ~p4 ~g4));
  if Sys.getenv_opt "FERRITE_ABLATIONS" <> None then begin
    section "Ablations";
    let outcomes = List.map (fun s -> Ferrite.Ablation.run s) Ferrite.Ablation.all in
    print_endline (Ferrite.Ablation.report outcomes)
  end;
  run_campaign_throughput ();
  if Sys.getenv_opt "FERRITE_SKIP_MICRO" = None then run_micro ()
