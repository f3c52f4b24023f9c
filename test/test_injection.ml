(* Tests for the injection framework: target generation, the NFTAPE
   breakpoint mechanics of section 3.3, crash-cause classification
   (Tables 3/4), the collector, and campaign determinism. *)

open Ferrite_kernel
open Ferrite_injection
module Image = Ferrite_kir.Image
module Rng = Ferrite_machine.Rng
module Workload = Ferrite_workload.Workload
module Runner = Ferrite_workload.Runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let hot = [ ("kmemcpy", 0.5); ("schedule", 0.3); ("getblk", 0.2) ]

(* ---------- target generation ---------- *)

let test_code_targets_within_functions () =
  List.iter
    (fun arch ->
      let sys = Boot.boot arch in
      let rng = Rng.create ~seed:1L in
      for _ = 1 to 100 do
        match Target.generate sys Target.Code ~hot rng with
        | Target.Code_target { fn; addr; bit } ->
          let f = Image.find_func sys.System.image fn in
          check_bool "address inside function" true
            (addr >= f.Image.fs_addr && addr < f.Image.fs_addr + f.Image.fs_size);
          check_bool "bit sane" true (bit >= 0 && bit < 8 * 15);
          if arch = Image.Risc then check_int "word aligned" 0 (addr land 3)
        | _ -> Alcotest.fail "wrong target kind"
      done)
    [ Image.Cisc; Image.Risc ]

let test_stack_targets_within_stacks () =
  let sys = Boot.boot Image.Cisc in
  let rng = Rng.create ~seed:2L in
  for _ = 1 to 200 do
    match Target.generate sys Target.Stack ~hot rng with
    | Target.Stack_target { task; addr; bit } ->
      let lo, hi = System.task_stack_range sys task in
      check_bool "in stack" true (addr >= lo && addr < hi);
      check_int "word aligned" 0 (addr land 3);
      check_bool "bit 0-31" true (bit >= 0 && bit < 32)
    | _ -> Alcotest.fail "wrong target kind"
  done

let test_data_targets_exclude_user_regions () =
  let sys = Boot.boot Image.Risc in
  let rng = Rng.create ~seed:3L in
  let forbidden =
    List.map
      (fun name ->
        let a = System.symbol sys name in
        (a, a + 20_000))
      [ "mailbox"; "user_buffers"; "disk" ]
  in
  ignore forbidden;
  let ds = sys.System.image.Image.img_data in
  for _ = 1 to 300 do
    match Target.generate sys Target.Data ~hot rng with
    | Target.Data_target { addr; _ } ->
      check_bool "inside data section" true
        (addr >= ds.Ferrite_kir.Layout.ds_base
        && addr < ds.Ferrite_kir.Layout.ds_base + ds.Ferrite_kir.Layout.ds_size);
      List.iter
        (fun name ->
          let g = Ferrite_kir.Layout.find_global ds name in
          check_bool (name ^ " excluded") false
            (addr >= g.Ferrite_kir.Layout.pg_addr
            && addr < g.Ferrite_kir.Layout.pg_addr + g.Ferrite_kir.Layout.pg_size))
        [ "mailbox"; "user_buffers"; "disk" ]
    | _ -> Alcotest.fail "wrong target kind"
  done

let test_register_targets () =
  List.iter
    (fun (arch, expected_regs) ->
      let sys = Boot.boot arch in
      let rng = Rng.create ~seed:4L in
      let regs = System.system_registers sys in
      check_int "register roster size" expected_regs (Array.length regs);
      for _ = 1 to 100 do
        match Target.generate sys Target.Register ~hot rng with
        | Target.Reg_target { index; bit; name; _ } ->
          check_bool "index valid" true (index >= 0 && index < Array.length regs);
          check_bool "bit within width" true (bit < regs.(index).System.bits);
          check_bool "name matches" true (name = regs.(index).System.name)
        | _ -> Alcotest.fail "wrong target kind"
      done)
    [ (Image.Cisc, 23); (Image.Risc, 99) ]

(* ---------- engine mechanics ---------- *)

let engine_cfg = Engine.default_config

let run_target arch target ~seed =
  let sys = Boot.boot arch in
  let rng = Rng.create ~seed in
  let wl = Workload.mix ~ops:12 () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  (sys, Engine.run_one ~sys ~runner ~target ~collector engine_cfg)

let test_cold_data_not_activated_and_restored () =
  (* a flip in boot_command_line is never touched by the workload: it must
     come back as Not Activated and the byte must be restored *)
  let sys = Boot.boot Image.Cisc in
  let addr = System.symbol sys "boot_command_line" + 512 in
  let before = System.peek32 sys addr in
  let rng = Rng.create ~seed:5L in
  let wl = Workload.mix ~ops:10 () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let target = Target.Data_target { addr; bit = 13 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector engine_cfg in
  check_bool "not activated" true (record.Outcome.r_outcome = Outcome.Not_activated);
  check_bool "not marked activated" false record.Outcome.r_activated;
  check_int "original value restored" before (System.peek32 sys addr)

let test_hot_data_activates () =
  (* jiffies is read constantly: the watchpoint must fire *)
  let sys = Boot.boot Image.Cisc in
  let addr = System.symbol sys "jiffies" in
  let rng = Rng.create ~seed:6L in
  let wl = Workload.mix ~ops:10 () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  (* bit 1: a tiny jiffies perturbation, very unlikely to crash *)
  let target = Target.Data_target { addr; bit = 1 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector engine_cfg in
  check_bool "activated" true record.Outcome.r_activated

let test_register_injection_always_activates () =
  let _, record =
    run_target Image.Risc
      (Target.Reg_target { index = 0; name = "MSR"; bit = 27; at_instr = 1_500 })
      ~seed:7L
  in
  check_bool "register runs count as activated" true record.Outcome.r_activated

let test_code_injection_crash_has_latency () =
  (* corrupt the hottest function's first instruction: expect activation and,
     usually, a crash with a positive latency *)
  let sys = Boot.boot Image.Cisc in
  let f = Image.find_func sys.System.image "kmemcpy" in
  let rng = Rng.create ~seed:8L in
  let wl = Workload.mix ~ops:12 () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let target = Target.Code_target { fn = "kmemcpy"; addr = f.Image.fs_addr; bit = 2 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector engine_cfg in
  check_bool "activated" true record.Outcome.r_activated;
  (match record.Outcome.r_outcome with
  | Outcome.Known_crash { ci_latency; _ } -> check_bool "positive latency" true (ci_latency > 0)
  | _ -> ())

let test_stuck_lock_becomes_hang () =
  (* corrupting the buffer_lock's locked byte makes the next file syscall
     spin forever: the watchdog must report Hang *)
  let sys = Boot.boot Image.Cisc in
  let lock = System.symbol sys "buffer_lock" in
  let sl =
    Ferrite_kir.Layout.layout_struct sys.System.image.Ferrite_kir.Image.img_mode
      Abi.spinlock_struct
  in
  let off = (Ferrite_kir.Layout.field_of sl "locked").Ferrite_kir.Layout.fl_offset in
  (* the locked byte lives in the word at (lock+off) & ~3; pick its bit *)
  let word = (lock + off) land lnot 3 in
  let bit = ((lock + off) - word) * 8 in
  let file_op =
    {
      Ferrite_workload.Workload.op_worker = 0;
      op_think = 0;
      op_issue = (fun sys -> (Abi.sys_open, 0, 0, 0, 0) |> fun r -> ignore sys; r);
      op_check = (fun _ _ -> true);
    }
  in
  let write_op =
    {
      Ferrite_workload.Workload.op_worker = 0;
      op_think = 0;
      op_issue =
        (fun sys ->
          (Abi.sys_write, 0, System.symbol sys "user_buffers", 64, 0));
      op_check = (fun _ _ -> true);
    }
  in
  let runner = Runner.create sys ~ops:[ file_op; write_op ] in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let target = Target.Data_target { addr = word; bit } in
  let cfg = { Engine.default_config with Engine.step_budget = 400_000 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector cfg in
  (match record.Outcome.r_outcome with
  | Outcome.Hang -> ()
  | o -> Alcotest.failf "expected Hang, got %s" (Outcome.outcome_label o))

let test_code_flip_bit_symmetry () =
  (* flip_code_bit must use the same arch-aware byte addressing as
     flip_word_bit: "bit b" is the instruction word's bit b on BOTH
     architectures. Read the word back through the arch's own byte order
     (System.peek32) and demand the flip changed exactly that bit. *)
  List.iter
    (fun arch ->
      let sys = Boot.boot arch in
      let f = Image.find_func sys.System.image "kmemcpy" in
      let addr = f.Image.fs_addr in
      List.iter
        (fun bit ->
          let before = System.peek32 sys addr in
          Engine.flip_code_bit sys addr bit;
          let after = System.peek32 sys addr in
          check_int
            (Printf.sprintf "%s bit %d flips exactly that word bit"
               (match arch with Image.Cisc -> "cisc" | Image.Risc -> "risc")
               bit)
            (before lxor (1 lsl bit))
            after;
          Engine.flip_code_bit sys addr bit;
          check_int "flip is an involution" before (System.peek32 sys addr))
        [ 0; 1; 7; 8; 14; 21; 27; 31 ])
    [ Image.Cisc; Image.Risc ]

let test_unactivated_crash_latency () =
  (* a crash with NO activated error (here: the kernel text is corrupted
     behind the injector's back, the armed data target stays cold) must
     report its latency from fault delivery — exactly the stage-3 handler
     cost — not from whatever the cycle counter reads after handler idling *)
  let sys = Boot.boot Image.Cisc in
  let f = Image.find_func sys.System.image "kmemcpy" in
  (* ud2a at the hot function's entry: the first call faults #UD *)
  System.poke8 sys f.Image.fs_addr 0x0F;
  System.poke8 sys (f.Image.fs_addr + 1) 0x0B;
  let cold = System.symbol sys "boot_command_line" + 512 in
  let rng = Rng.create ~seed:5L in
  let wl = Workload.mix ~ops:10 () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let target = Target.Data_target { addr = cold; bit = 13 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector engine_cfg in
  match record.Outcome.r_outcome with
  | Outcome.Known_crash { ci_latency; _ } ->
    check_int "latency is exactly the handler cost"
      engine_cfg.Engine.handler_cycles_cisc ci_latency
  | o -> Alcotest.failf "expected a crash, got %s" (Outcome.outcome_label o)

let test_register_injection_exact_instant =
  (* the register flip must land at exactly [at_instr], for ANY tick
     interval: the poll lives on the per-step path, not the tick path *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"register flip lands exactly at at_instr" ~count:25
       QCheck.(pair (int_range 100 3000) (int_range 0 10))
       (fun (delta, tick_pow) ->
         let sys = Boot.boot Image.Cisc in
         let n0 = (System.counters sys).Ferrite_machine.Counters.instructions in
         let at_instr = n0 + delta in
         let rng = Rng.create ~seed:11L in
         let wl = Workload.mix ~ops:12 () in
         let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
         let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
         let target = Target.Reg_target { index = 0; name = "sysreg0"; bit = 3; at_instr } in
         let tracer = Ferrite_trace.Tracer.create Ferrite_trace.Tracer.default_config in
         let cfg = { engine_cfg with Engine.tick_interval = 1 lsl tick_pow } in
         let _record = Engine.run_one ~tracer ~sys ~runner ~target ~collector cfg in
         let flip_instr =
           List.find_map
             (fun (stamp, ev) ->
               match ev with
               | Ferrite_trace.Event.Reg_flip _ -> Some stamp.Ferrite_trace.Event.s_instructions
               | _ -> None)
             (Ferrite_trace.Tracer.events tracer)
         in
         flip_instr = Some at_instr))

let test_config_validation () =
  let c = Engine.validated { Engine.default_config with Engine.tick_interval = 100 } in
  check_int "tick rounded up to power of two" 128 c.Engine.tick_interval;
  check_bool "power of two untouched" true
    (Engine.validated Engine.default_config = Engine.default_config);
  (match Engine.validated { Engine.default_config with Engine.tick_interval = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tick_interval 0 must be rejected");
  match Engine.validated { Engine.default_config with Engine.step_budget = -1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative step_budget must be rejected"

let test_unactivated_hang_restores () =
  (* a workload that wedges itself (stuck buffer_lock poked by the op itself)
     exhausts the watchdog without ever touching the cold data target: the run
     is a Hang, not activated, and the flipped bit must still be restored *)
  let sys = Boot.boot Image.Cisc in
  let addr = System.symbol sys "boot_command_line" + 512 in
  let before = System.peek32 sys addr in
  let lock = System.symbol sys "buffer_lock" in
  let sl =
    Ferrite_kir.Layout.layout_struct sys.System.image.Ferrite_kir.Image.img_mode
      Abi.spinlock_struct
  in
  let off = (Ferrite_kir.Layout.field_of sl "locked").Ferrite_kir.Layout.fl_offset in
  let open_op =
    {
      Ferrite_workload.Workload.op_worker = 0;
      op_think = 0;
      op_issue = (fun _ -> (Abi.sys_open, 0, 0, 0, 0));
      op_check = (fun _ _ -> true);
    }
  in
  let wedge_op =
    {
      Ferrite_workload.Workload.op_worker = 0;
      op_think = 0;
      op_issue =
        (fun sys ->
          System.poke8 sys (lock + off) 1;
          (Abi.sys_write, 0, System.symbol sys "user_buffers", 64, 0));
      op_check = (fun _ _ -> true);
    }
  in
  let runner = Runner.create sys ~ops:[ open_op; wedge_op ] in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let target = Target.Data_target { addr; bit = 13 } in
  let cfg = { Engine.default_config with Engine.step_budget = 100_000 } in
  let record = Engine.run_one ~sys ~runner ~target ~collector cfg in
  check_bool "watchdog fired" true (record.Outcome.r_outcome = Outcome.Hang);
  check_bool "never activated" false record.Outcome.r_activated;
  check_int "original value restored" before (System.peek32 sys addr)

(* ---------- classification ---------- *)

let test_classify_p4 () =
  let sys = Boot.boot Image.Cisc in
  let cases =
    [
      (Ferrite_cisc.Exn.Page_fault { addr = 0x8; write = false; fetch = false },
       Crash_cause.P4 Crash_cause.Null_pointer);
      (Ferrite_cisc.Exn.Page_fault { addr = 0xDEAD0000; write = true; fetch = false },
       Crash_cause.P4 Crash_cause.Bad_paging);
      (Ferrite_cisc.Exn.Invalid_opcode, Crash_cause.P4 Crash_cause.Invalid_instruction);
      (Ferrite_cisc.Exn.General_protection { addr = None },
       Crash_cause.P4 Crash_cause.General_protection);
      (Ferrite_cisc.Exn.Invalid_tss, Crash_cause.P4 Crash_cause.Invalid_tss);
      (Ferrite_cisc.Exn.Divide_error, Crash_cause.P4 Crash_cause.Divide_error);
      (Ferrite_cisc.Exn.Bounds, Crash_cause.P4 Crash_cause.Bounds_trap);
    ]
  in
  List.iter
    (fun (e, expected) ->
      match Crash_cause.classify sys (System.Cisc_fault e) with
      | Some c -> check_bool (Crash_cause.label expected) true (c = expected)
      | None -> Alcotest.fail "unexpected None")
    cases;
  check_bool "double fault gives no dump" true
    (Crash_cause.classify sys (System.Cisc_fault Ferrite_cisc.Exn.Double_fault) = None)

let test_classify_p4_panic_flag () =
  let sys = Boot.boot Image.Cisc in
  System.set_global sys "panic_code" 3;
  (match Crash_cause.classify sys (System.Cisc_fault Ferrite_cisc.Exn.Invalid_opcode) with
  | Some (Crash_cause.P4 Crash_cause.Kernel_panic) -> ()
  | _ -> Alcotest.fail "panic code must reclassify ud2 as Kernel Panic");
  System.set_global sys "panic_code" 0

let test_classify_g4 () =
  let sys = Boot.boot Image.Risc in
  let cases =
    [
      (Ferrite_risc.Exn.Dsi { addr = 0x4C; write = false; protection = false },
       Crash_cause.G4 Crash_cause.Bad_area);
      (Ferrite_risc.Exn.Dsi { addr = 0xC0100000; write = true; protection = true },
       Crash_cause.G4 Crash_cause.Bus_error);
      (Ferrite_risc.Exn.Isi { addr = 0x10 }, Crash_cause.G4 Crash_cause.Bad_area);
      (Ferrite_risc.Exn.Program_illegal, Crash_cause.G4 Crash_cause.Illegal_instruction);
      (Ferrite_risc.Exn.Program_trap, Crash_cause.G4 Crash_cause.Panic);
      (Ferrite_risc.Exn.Alignment { addr = 3 }, Crash_cause.G4 Crash_cause.Alignment);
      (Ferrite_risc.Exn.Machine_check { addr = None }, Crash_cause.G4 Crash_cause.Machine_check);
      (Ferrite_risc.Exn.Program_privileged, Crash_cause.G4 Crash_cause.Bad_trap);
      (Ferrite_risc.Exn.Unexpected_syscall, Crash_cause.G4 Crash_cause.Bad_trap);
    ]
  in
  List.iter
    (fun (e, expected) ->
      match Crash_cause.classify sys (System.Risc_fault e) with
      | Some c -> check_bool (Crash_cause.label expected) true (c = expected)
      | None -> Alcotest.fail "unexpected None")
    cases

let test_classify_g4_stack_wrapper () =
  let sys = Boot.boot Image.Risc in
  (match sys.System.cpu with
  | System.Rcpu cpu ->
    cpu.Ferrite_risc.Cpu.gpr.(1) <- 0xC0300000;  (* outside every stack *)
    (match
       Crash_cause.classify sys
         (System.Risc_fault (Ferrite_risc.Exn.Dsi { addr = 0x10; write = false; protection = false }))
     with
    | Some (Crash_cause.G4 Crash_cause.Stack_overflow) -> ()
    | _ -> Alcotest.fail "wrapper must reclassify as Stack Overflow");
    (* a pointer into another task's stack passes the wrapper *)
    let lo, _ = System.task_stack_range sys 5 in
    cpu.Ferrite_risc.Cpu.gpr.(1) <- lo + 128;
    (match
       Crash_cause.classify sys
         (System.Risc_fault (Ferrite_risc.Exn.Dsi { addr = 0x10; write = false; protection = false }))
     with
    | Some (Crash_cause.G4 Crash_cause.Bad_area) -> ()
    | _ -> Alcotest.fail "another task's stack must pass the wrapper")
  | _ -> assert false)

(* ---------- collector ---------- *)

let dummy_info =
  {
    Outcome.ci_cause = Crash_cause.P4 Crash_cause.Bad_paging;
    ci_latency = 42;
    ci_pc = 0xC0100000;
    ci_function = None;
  }

let test_collector_lossless () =
  let c = Collector.create ~loss_rate:0.0 ~seed:1L () in
  for _ = 1 to 100 do
    check_bool "delivered" true (Collector.send c dummy_info <> None)
  done;
  check_int "received" 100 (Collector.received c);
  check_int "lost" 0 (Collector.lost c)

let test_collector_lossy () =
  let c = Collector.create ~loss_rate:1.0 ~seed:1L () in
  for _ = 1 to 50 do
    check_bool "dropped" true (Collector.send c dummy_info = None)
  done;
  check_int "all lost" 50 (Collector.lost c)

let test_collector_rate () =
  let c = Collector.create ~loss_rate:0.2 ~seed:7L () in
  for _ = 1 to 2000 do
    ignore (Collector.send c dummy_info)
  done;
  let frac = float_of_int (Collector.lost c) /. 2000.0 in
  check_bool "about 20% lost" true (frac > 0.15 && frac < 0.25)

(* Collector tallies fold from per-trial stats; the fold must not care how
   trials were grouped, so the merge must be a commutative monoid on stats. *)
let stats_arb =
  QCheck.map
    (fun ((r, l), (rt, g, d)) ->
      {
        Collector.st_received = r;
        st_lost = l;
        st_retransmitted = rt;
        st_gave_up = g;
        st_dup_dropped = d;
        st_by_model = (if r > 0 then [ ("single_bit", r) ] else []);
      })
    QCheck.(
      pair
        (pair (int_range 0 10_000) (int_range 0 10_000))
        (triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 10_000)))

let prop_collector_merge_monoid =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merge_stats is a commutative monoid" ~count:200
       (QCheck.triple stats_arb stats_arb stats_arb)
       (fun (a, b, c) ->
         let ( + ) = Collector.merge_stats in
         a + (b + c) = a + b + c
         && a + b = b + a
         && Collector.zero_stats + a = a
         && a + Collector.zero_stats = a))

(* ---------- campaign ---------- *)

let test_campaign_deterministic () =
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:40 in
  let r1 = Campaign.run cfg and r2 = Campaign.run cfg in
  let s1 = Campaign.summarize r1 and s2 = Campaign.summarize r2 in
  check_bool "identical summaries" true (s1 = s2);
  check_bool "identical cause lists" true (Campaign.crash_causes r1 = Campaign.crash_causes r2)

let test_campaign_accounting () =
  let cfg = Campaign.default ~arch:Image.Risc ~kind:Target.Code ~injections:60 in
  let r = Campaign.run cfg in
  let s = Campaign.summarize r in
  check_int "records = injections" 60 s.Campaign.injected;
  check_int "outcomes partition the activated set"
    s.Campaign.activated
    (s.Campaign.not_manifested + s.Campaign.fsv + s.Campaign.known_crash
   + s.Campaign.hang_or_unknown);
  check_bool "reboots bounded by injections" true (r.Campaign.reboots <= 60 + 1);
  check_bool "latencies only from known crashes" true
    (List.length (Campaign.latencies r) = s.Campaign.known_crash)

let test_campaign_seed_changes_results () =
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Data ~injections:120 in
  let r1 = Campaign.run cfg in
  let r2 = Campaign.run { cfg with Campaign.seed = 0x1234L } in
  check_bool "different seeds, different targets" true
    (List.map (fun r -> r.Outcome.r_target) r1.Campaign.records
    <> List.map (fun r -> r.Outcome.r_target) r2.Campaign.records)

let () =
  Alcotest.run "ferrite_injection"
    [
      ( "targets",
        [
          Alcotest.test_case "code targets in bounds" `Quick test_code_targets_within_functions;
          Alcotest.test_case "stack targets in stacks" `Quick test_stack_targets_within_stacks;
          Alcotest.test_case "data excludes user pages" `Quick test_data_targets_exclude_user_regions;
          Alcotest.test_case "register rosters" `Quick test_register_targets;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cold data restored" `Quick test_cold_data_not_activated_and_restored;
          Alcotest.test_case "hot data activates" `Quick test_hot_data_activates;
          Alcotest.test_case "register activation" `Quick test_register_injection_always_activates;
          Alcotest.test_case "code crash latency" `Quick test_code_injection_crash_has_latency;
          Alcotest.test_case "stuck lock -> Hang" `Quick test_stuck_lock_becomes_hang;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "unactivated hang restores" `Quick test_unactivated_hang_restores;
          Alcotest.test_case "code flip bit symmetry" `Quick test_code_flip_bit_symmetry;
          Alcotest.test_case "unactivated crash latency" `Quick test_unactivated_crash_latency;
          test_register_injection_exact_instant;
        ] );
      ( "classification",
        [
          Alcotest.test_case "P4 causes" `Quick test_classify_p4;
          Alcotest.test_case "P4 panic flag" `Quick test_classify_p4_panic_flag;
          Alcotest.test_case "G4 causes" `Quick test_classify_g4;
          Alcotest.test_case "G4 stack wrapper" `Quick test_classify_g4_stack_wrapper;
        ] );
      ( "collector",
        [
          Alcotest.test_case "lossless" `Quick test_collector_lossless;
          Alcotest.test_case "total loss" `Quick test_collector_lossy;
          Alcotest.test_case "loss rate" `Quick test_collector_rate;
          prop_collector_merge_monoid;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "accounting" `Quick test_campaign_accounting;
          Alcotest.test_case "seed sensitivity" `Quick test_campaign_seed_changes_results;
        ] );
    ]
