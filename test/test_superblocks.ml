(* The superblock translation layer must be a pure acceleration: outside the
   injection window straight-line code runs as flattened micro-op arrays, but
   every observable — records, telemetry, event traces, store bytes — must be
   bit-identical to the precise per-step interpreter. A differential qcheck
   property replays whole campaigns with superblocks disabled
   ([Memory.set_superblocks_default false]) across fault models and worker
   counts; unit tests pin each precise-fallback edge (self-modifying stores,
   mid-block exceptions, armed breakpoints, block-boundary branches) and the
   overflow/monotonicity contract of the diagnostic counters.

   Exact cycle cutting of closed livelocks is held to the same standard:
   hand-built loops on both ISAs and a hang-heavy differential property
   compare cutting on and off ([Memory.set_cycle_cuts_default false]), and
   negative cases pin what must never be cut. *)

open Ferrite_machine
module Campaign = Ferrite_injection.Campaign
module Engine = Ferrite_injection.Engine
module Target = Ferrite_injection.Target
module Fault_model = Ferrite_injection.Fault_model
module Image = Ferrite_kir.Image
module Boot = Ferrite_kernel.Boot
module System = Ferrite_kernel.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_base = 0xC0100000
let stop_addr = 0xFFFF0000

(* --- differential pairs: one CPU translated, one precise ------------------ *)

(* Both CPUs see the same memory image and are driven through [Cpu.run]; only
   [sb_enabled] differs. Every architecturally visible observable must agree:
   result, retired count, pc, registers, and the counter stamps. *)

let risc_pair setup =
  let make sb =
    let mem = Memory.create () in
    Memory.map mem ~addr:code_base ~size:0x2000 ~perm:Memory.perm_rwx;
    let cpu = Ferrite_risc.Cpu.create ~mem ~stop_addr in
    cpu.Ferrite_risc.Cpu.sb_enabled <- sb;
    setup mem cpu;
    cpu
  in
  (make true, make false)

let cisc_pair setup =
  let make sb =
    let mem = Memory.create () in
    Memory.map mem ~addr:code_base ~size:0x2000 ~perm:Memory.perm_rwx;
    let cpu = Ferrite_cisc.Cpu.create ~mem ~stop_addr in
    cpu.Ferrite_cisc.Cpu.sb_enabled <- sb;
    setup mem cpu;
    cpu
  in
  (make true, make false)

let check_risc_agree msg (a : Ferrite_risc.Cpu.t) (b : Ferrite_risc.Cpu.t) =
  check_int (msg ^ ": pc") b.Ferrite_risc.Cpu.pc a.Ferrite_risc.Cpu.pc;
  for i = 0 to 31 do
    check_int
      (Printf.sprintf "%s: r%d" msg i)
      b.Ferrite_risc.Cpu.gpr.(i) a.Ferrite_risc.Cpu.gpr.(i)
  done;
  let ca = Counters.stamp a.Ferrite_risc.Cpu.counters in
  let cb = Counters.stamp b.Ferrite_risc.Cpu.counters in
  Alcotest.(check (pair int int)) (msg ^ ": counters") cb ca

let check_cisc_agree msg (a : Ferrite_cisc.Cpu.t) (b : Ferrite_cisc.Cpu.t) =
  check_int (msg ^ ": eip") b.Ferrite_cisc.Cpu.eip a.Ferrite_cisc.Cpu.eip;
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "%s: reg%d" msg i)
      b.Ferrite_cisc.Cpu.regs.(i) a.Ferrite_cisc.Cpu.regs.(i)
  done;
  let ca = Counters.stamp a.Ferrite_cisc.Cpu.counters in
  let cb = Counters.stamp b.Ferrite_cisc.Cpu.counters in
  Alcotest.(check (pair int int)) (msg ^ ": counters") cb ca

(* --- fallback edge: self-modifying code mid-block ------------------------- *)

(* A store inside a superblock overwrites a later instruction of the same
   block. The store-generation check must abandon the stale block after the
   store retires, so the rewritten bytes — not the flattened copy — execute. *)

let test_risc_smc_invalidates () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x90A60008;
    (* stw r5, 8(r6): overwrites the li below *)
    Memory.poke32_be mem (code_base + 8) 0x38800001;
    (* li r4, 1 *)
    cpu.Ferrite_risc.Cpu.gpr.(5) <- 0x38800009 (* li r4, 9 *);
    cpu.Ferrite_risc.Cpu.gpr.(6) <- code_base;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = Cpu.run sb ~max_steps:3 in
  let rb = Cpu.run precise ~max_steps:3 in
  check_bool "same run result" true (ra = rb);
  check_int "rewritten instruction executed, not the stale block" 9
    sb.Cpu.gpr.(4);
  check_risc_agree "smc" sb precise;
  let _, _, insns, _ = Cpu.superblock_stats sb in
  check_bool "translated execution actually ran" true (insns > 0)

let test_cisc_smc_invalidates () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    (* C7 05 disp32 imm32: mov dword [code_base+11], 0x22 — rewrites the
       immediate of the mov eax below, which sits in the same superblock *)
    Memory.poke8 mem code_base 0xC7;
    Memory.poke8 mem (code_base + 1) 0x05;
    Memory.poke32_le mem (code_base + 2) (code_base + 11);
    Memory.poke32_le mem (code_base + 6) 0x22;
    (* B8 imm32: mov eax, 0x11 *)
    Memory.poke8 mem (code_base + 10) 0xB8;
    Memory.poke32_le mem (code_base + 11) 0x11;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  let ra = Cpu.run sb ~max_steps:2 in
  let rb = Cpu.run precise ~max_steps:2 in
  check_bool "same run result" true (ra = rb);
  check_int "rewritten immediate executed, not the stale block" 0x22
    sb.Cpu.regs.(Cpu.eax);
  check_cisc_agree "smc" sb precise

(* --- fallback edge: exception mid-block ----------------------------------- *)

(* A load faults in the middle of a superblock: the completed prefix must be
   charged, the faulting micro-op must not retire, and the exception must be
   delivered exactly as the precise interpreter delivers it. *)

let test_risc_midblock_exception () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x80860000;
    (* lwz r4, 0(r6) — r6 points into unmapped space *)
    cpu.Ferrite_risc.Cpu.gpr.(6) <- 0x7EAD0000;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = Cpu.run sb ~max_steps:10 in
  let rb = Cpu.run precise ~max_steps:10 in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_risc.Exn.Dsi _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Dsi)");
  check_int "pc parked on the faulting instruction" (code_base + 4)
    sb.Cpu.pc;
  check_risc_agree "mid-block fault" sb precise

let test_cisc_midblock_exception () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    (* B8 imm32: mov eax, 5 *)
    Memory.poke8 mem code_base 0xB8;
    Memory.poke32_le mem (code_base + 1) 0x5;
    (* 8B 05 disp32: mov eax, [0x7EAD0000] — unmapped *)
    Memory.poke8 mem (code_base + 5) 0x8B;
    Memory.poke8 mem (code_base + 6) 0x05;
    Memory.poke32_le mem (code_base + 7) 0x7EAD0000;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  let ra = Cpu.run sb ~max_steps:10 in
  let rb = Cpu.run precise ~max_steps:10 in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_cisc.Exn.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Page_fault)");
  check_int "eip parked on the faulting instruction" (code_base + 5)
    sb.Cpu.eip;
  check_cisc_agree "mid-block fault" sb precise

(* --- fallback edge: breakpoint armed over a cached block ------------------ *)

(* The injector arms an execute breakpoint between two runs. Even though a
   superblock covering the armed pc is cached and valid, the next run must
   take the precise path and report [Hit_ibp] before executing anything at
   the armed address. *)

let test_risc_breakpoint_forces_precise () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x38800001;
    (* li r4, 1 *)
    Memory.poke32_be mem (code_base + 8) 0x38A00002;
    (* li r5, 2 *)
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  (* first run caches the block on the sb side *)
  check_bool "warm run" true (Cpu.run sb ~max_steps:3 = Cpu.run precise ~max_steps:3);
  let again (cpu : Cpu.t) =
    cpu.Cpu.pc <- code_base;
    cpu.Cpu.gpr.(4) <- 0;
    Debug_regs.set_instruction_bp cpu.Cpu.dr (code_base + 4);
    Cpu.run cpu ~max_steps:3
  in
  let ra = again sb in
  let rb = again precise in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Hit_ibp -> ()
  | _ -> Alcotest.fail "expected (1, Hit_ibp)");
  check_int "armed instruction did not execute" 0 sb.Cpu.gpr.(4);
  check_int "pc parked on the breakpoint" (code_base + 4) sb.Cpu.pc;
  check_risc_agree "armed bp" sb precise

(* --- fallback edge: block-boundary branch to an uncached pc --------------- *)

(* The builder follows an unconditional direct branch, so the pre-branch
   instructions, the branch and its target all land in one block — the
   skipped bytes never execute and the counters stay exact. *)

let test_risc_branch_to_uncached () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600001;
    (* li r3, 1 *)
    Memory.poke32_be mem (code_base + 4) 0x4800000C;
    (* b +12 (to code_base+16) *)
    Memory.poke32_be mem (code_base + 8) 0x38600063;
    (* li r3, 99 — must be skipped *)
    Memory.poke32_be mem (code_base + 16) 0x38800002;
    (* li r4, 2 *)
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = Cpu.run sb ~max_steps:3 in
  let rb = Cpu.run precise ~max_steps:3 in
  check_bool "same run result" true (ra = rb);
  check_int "retired across the boundary" 3 (fst ra);
  check_int "branch taken" 1 sb.Cpu.gpr.(3);
  check_int "target block executed" 2 sb.Cpu.gpr.(4);
  check_risc_agree "block-boundary branch" sb precise;
  let _, blocks, insns, _ = Cpu.superblock_stats sb in
  check_bool "the branch was followed into one block" true (blocks >= 1);
  check_int "all three instructions retired in superblocks" 3 insns

(* --- Cache_stats: overflow-safe merge, monotonicity ----------------------- *)

(* Pre-fix, [merge] summed fields with plain [+]: two near-[max_int] counters
   (a long campaign's worth of decode hits per worker) wrapped negative,
   breaking the documented monotonicity. The fixed merge saturates. *)

let test_cache_stats_merge_saturates () =
  let a = { Cache_stats.zero with Cache_stats.cs_decode_hits = max_int - 5 } in
  let b = { Cache_stats.zero with Cache_stats.cs_decode_hits = 10 } in
  let m = Cache_stats.merge a b in
  check_bool "merge never wraps negative" true
    (m.Cache_stats.cs_decode_hits >= 0);
  check_int "merge saturates at max_int" max_int m.Cache_stats.cs_decode_hits;
  check_bool "merge is monotone in both operands" true
    (m.Cache_stats.cs_decode_hits >= a.Cache_stats.cs_decode_hits
    && m.Cache_stats.cs_decode_hits >= b.Cache_stats.cs_decode_hits)

let test_cache_stats_delta_clamps () =
  let before = { Cache_stats.zero with Cache_stats.cs_sb_insns = 1000 } in
  let after = { Cache_stats.zero with Cache_stats.cs_sb_insns = 10 } in
  (* the machine was dropped and re-booted between readings *)
  let d = Cache_stats.delta ~before ~after in
  check_int "delta clamps at zero instead of going negative" 0
    d.Cache_stats.cs_sb_insns

(* Counters are machine-lifetime diagnostics: a snapshot/restore (the logical
   reboot between trials) must not reset or replay them. *)

let test_cache_stats_monotone_across_restore () =
  let sys = Boot.boot Image.Cisc in
  for _ = 1 to 50 do
    ignore (System.step sys)
  done;
  let snap = System.snapshot sys in
  let s1 = System.cache_stats sys in
  System.restore sys snap;
  for _ = 1 to 50 do
    ignore (System.step sys)
  done;
  let s2 = System.cache_stats sys in
  List.iter2
    (fun (name, v1) (_, v2) ->
      check_bool (name ^ " is monotone across restore") true (v2 >= v1))
    (Cache_stats.fields s1) (Cache_stats.fields s2)

(* --- differential property: whole campaigns, byte for byte ---------------- *)

(* Run a campaign with one process-global default ([set]) switched to [on];
   forked fabric workers inherit it. *)
let run_with ?(workers = 1) ~set ~on cfg =
  set on;
  Fun.protect
    ~finally:(fun () -> set true)
    (fun () ->
      fst
        (Ferrite_fabric.Fabric.run ~workers ~tracer:Ferrite_trace.Tracer.default_config cfg))

let run_campaign ?workers ~sb cfg =
  run_with ?workers ~set:Memory.set_superblocks_default ~on:sb cfg

(* The exact bytes the columnar store would persist for this campaign. *)
let store_bytes res =
  let path = Filename.temp_file "ferrite_sb" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Ferrite_injection.Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

let kinds = [| Target.Stack; Target.Data; Target.Code; Target.Register |]
let arches = [| Image.Cisc; Image.Risc |]
let models = Array.of_list Fault_model.sweep_models

let prop_superblocks_invisible =
  QCheck.Test.make
    ~name:"sb-on == sb-off (records, telemetry, traces, store bytes; 1 and 2 workers)"
    ~count:4
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 3) (int_bound 1)
        (int_bound (Array.length models - 1)))
    (fun (seed, ki, ai, mi) ->
      let cfg =
        {
          (Campaign.default ~arch:arches.(ai) ~kind:kinds.(ki) ~injections:5) with
          Campaign.seed = Int64.of_int (succ seed);
          fault_model = models.(mi);
          engine = { Engine.default_config with Engine.step_budget = 200_000 };
        }
      in
      let base = run_campaign ~sb:false cfg in
      let seq = run_campaign ~sb:true cfg in
      let par2 = run_campaign ~workers:2 ~sb:true cfg in
      let boots_eq p =
        Ferrite_trace.Telemetry.with_boots base.Campaign.telemetry
          p.Campaign.reboots
        = Ferrite_trace.Telemetry.with_boots p.Campaign.telemetry
            p.Campaign.reboots
      in
      base.Campaign.records = seq.Campaign.records
      && base.Campaign.telemetry = seq.Campaign.telemetry
      && base.Campaign.traces = seq.Campaign.traces
      && store_bytes base = store_bytes seq
      (* a fabric run may differ in tl_boots (one boot per worker) but in
         nothing else *)
      && base.Campaign.records = par2.Campaign.records
      && base.Campaign.traces = par2.Campaign.traces
      && boots_eq par2
      && store_bytes seq = store_bytes par2)

(* --- exact cycle cutting -------------------------------------------------- *)

module Runner = Ferrite_workload.Runner
module Workload = Ferrite_workload.Workload
module Collector = Ferrite_injection.Collector
module Tracer = Ferrite_trace.Tracer

let images = [| lazy (Boot.build_image Image.Cisc); lazy (Boot.build_image Image.Risc) |]
let loop_base = Ferrite_kernel.Abi.heap_base
let loop_budget = { Engine.default_config with Engine.step_budget = 200_000 }

type loop_code = Bytes of int list | Words of int list

(* Boot, hijack the CPU into a hand-built loop on the (rwx) heap, and run one
   trial to the watchdog under a 4096-event ring. The runner's first request
   is issued and never completes, as in a hung kernel. *)
let run_loop ~cuts ?(model = Fault_model.Single_bit_transient) ~code ~target () =
  let arch = match code with Bytes _ -> Image.Cisc | Words _ -> Image.Risc in
  let image = Lazy.force images.(match arch with Image.Cisc -> 0 | Image.Risc -> 1) in
  Memory.set_cycle_cuts_default cuts;
  let sys =
    Fun.protect
      ~finally:(fun () -> Memory.set_cycle_cuts_default true)
      (fun () -> Boot.boot ~image arch)
  in
  (match code with
  | Bytes bs -> List.iteri (fun i b -> System.poke8 sys (loop_base + i) b) bs
  | Words ws -> List.iteri (fun i w -> System.poke32 sys (loop_base + (4 * i)) w) ws);
  System.set_pc sys loop_base;
  let wl = List.hd Workload.all in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops (Rng.create ~seed:1L)) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:9L () in
  let tracer = Tracer.create Tracer.default_config in
  let record =
    Engine.run_one ~tracer ~model ~sys ~runner ~target:(target sys) ~collector loop_budget
  in
  ( record,
    Tracer.trial_of tracer ~index:0 ~target:"loop" ~outcome:"",
    Counters.stamp (System.counters sys),
    System.cache_stats sys )

(* Cutting on and off must agree on the record, the retained ring, the
   telemetry and the final counters; [expect_cut] says whether the cutting
   run may (and must) cut. *)
let check_loop name ~expect_cut ?model ~code ~target () =
  let r_on, tr_on, st_on, cs_on = run_loop ~cuts:true ?model ~code ~target () in
  let r_off, tr_off, st_off, cs_off = run_loop ~cuts:false ?model ~code ~target () in
  check_bool (name ^ ": same record") true (r_on = r_off);
  check_bool (name ^ ": same retained events") true (tr_on.Tracer.tr_events = tr_off.Tracer.tr_events);
  check_bool (name ^ ": ring holds events") true (List.length tr_on.Tracer.tr_events > 0);
  check_bool (name ^ ": same telemetry") true (tr_on.Tracer.tr_telemetry = tr_off.Tracer.tr_telemetry);
  Alcotest.(check (pair int int)) (name ^ ": same final counters") st_off st_on;
  check_int (name ^ ": nothing cut with cutting off") 0 cs_off.Cache_stats.cs_cycle_cuts;
  check_int (name ^ ": trials cut") (if expect_cut then 1 else 0) cs_on.Cache_stats.cs_cycle_cuts;
  if expect_cut then begin
    check_bool (name ^ ": hangs") true
      (r_on.Ferrite_injection.Outcome.r_outcome = Ferrite_injection.Outcome.Hang);
    check_bool (name ^ ": most of the run skipped") true
      (cs_on.Cache_stats.cs_skipped_insns > loop_budget.Engine.step_budget / 2)
  end

(* an armed data watchpoint nobody touches: the run never activates *)
let quiet_data _ = Target.Data_target { addr = loop_base + 0x800; bit = 3 }
let stack_word sys = Target.Stack_target { task = 0; addr = System.sp sys; bit = 5 }

let tight = [ (Bytes [ 0xEB; 0xFE ], "jmp $"); (Words [ 0x48000000 ], "b .") ]

(* period 384 steps, three ticks: P4 mov ecx,191 / dec ecx / jnz / jmp;
   G4 li r3,381 / mtctr r3 / bdnz . / b start *)
let long_period =
  [
    (Bytes [ 0xB9; 191; 0; 0; 0; 0x49; 0x75; 0xFD; 0xEB; 0xF6 ], "p4 dec/jnz");
    (Words [ 0x3860017D; 0x7C6903A6; 0x42000000; 0x4BFFFFF4 ], "g4 bdnz");
  ]

(* store to the watched stack word every iteration: a watchpoint hit and a
   re-injection per period *)
let watched =
  [
    (Bytes [ 0x89; 0x04; 0x24; 0xEB; 0xFB ], "p4 mov [esp]");
    (Words [ 0x90610000; 0x4BFFFFFC ], "g4 stw r3,0(r1)");
  ]

(* count in a memory word to 20000, then fault: pc and registers repeat at
   tick boundaries but the memory never does, so trusting the hint would
   skip over the fault *)
let counting =
  [
    ( Bytes
        [ 0xB8; 0x00; 0x09; 0xA0; 0xC0; (* mov eax, counter *)
          0x8B; 0x08; 0x41; 0x89; 0x08; (* mov ecx,[eax]; inc ecx; mov [eax],ecx *)
          0x81; 0xF9; 0x20; 0x4E; 0x00; 0x00; (* cmp ecx, 20000 *)
          0x74; 0x04; 0x31; 0xC9; 0xEB; 0xEF; (* je ud2; xor ecx,ecx; jmp back *)
          0x0F; 0x0B ],
      "p4 memory counter" );
    ( Words
        [ 0x3CA0C0A0; 0x60A50900; (* r5 = counter *)
          0x80850000; 0x38840001; 0x90850000; (* lwz; addi; stw *)
          0x2C044E20; 0x4182000C; (* cmpwi r4, 20000; beq illegal *)
          0x38800000; 0x4BFFFFE8; (* li r4, 0; b back *)
          0 ],
      "g4 memory counter" );
  ]

let test_cut_loops () =
  List.iter (fun (code, n) -> check_loop ("tight " ^ n) ~expect_cut:true ~code ~target:quiet_data ()) tight;
  List.iter
    (fun (code, n) -> check_loop ("long period " ^ n) ~expect_cut:true ~code ~target:quiet_data ())
    long_period;
  List.iter
    (fun (code, n) -> check_loop ("watched word " ^ n) ~expect_cut:true ~code ~target:stack_word ())
    watched

let test_never_cut () =
  List.iter
    (fun (code, n) -> check_loop ("counting " ^ n) ~expect_cut:false ~code ~target:quiet_data ())
    counting;
  (* a register flip still waiting for its instruction: skipping periods
     would jump over the injection point *)
  let pending _ = Target.Reg_target { index = 0; name = "r"; bit = 2; at_instr = max_int } in
  List.iter
    (fun (code, n) -> check_loop ("pending register " ^ n) ~expect_cut:false ~code ~target:pending ())
    tight;
  (* an intermittent fault toggles on ticks: the machine is never closed *)
  let model = Fault_model.Intermittent { period = 8; duty = 4; seed = 0L } in
  List.iter
    (fun (code, n) -> check_loop ("intermittent " ^ n) ~expect_cut:false ~model ~code ~target:quiet_data ())
    tight

let run_cut_campaign ?workers ~cuts cfg =
  run_with ?workers ~set:Memory.set_cycle_cuts_default ~on:cuts cfg

(* Hang-heavy plans: G4 code and P4 stack flips under a small step budget,
   so many trials reach the watchdog and the closed ones are cut. *)
let prop_cuts_invisible =
  QCheck.Test.make
    ~name:
      "cut-on == cut-off on hang-heavy plans (records, telemetry, traces, dumps, store \
       bytes; 1 and 2 workers)"
    ~count:6
    QCheck.(pair (int_bound 0xFFFF) bool)
    (fun (seed, g4) ->
      let arch, kind = if g4 then (Image.Risc, Target.Code) else (Image.Cisc, Target.Stack) in
      let cfg =
        {
          (Campaign.default ~arch ~kind ~injections:12) with
          Campaign.seed = Int64.of_int (succ seed);
          engine = { Engine.default_config with Engine.step_budget = 40_000 };
        }
      in
      let base = run_cut_campaign ~cuts:false cfg in
      let seq = run_cut_campaign ~cuts:true cfg in
      let par2 = run_cut_campaign ~workers:2 ~cuts:true cfg in
      base.Campaign.records = seq.Campaign.records
      && base.Campaign.telemetry = seq.Campaign.telemetry
      && base.Campaign.traces = seq.Campaign.traces
      && base.Campaign.dumps = seq.Campaign.dumps
      && store_bytes base = store_bytes seq
      && base.Campaign.records = par2.Campaign.records
      && base.Campaign.traces = par2.Campaign.traces
      && base.Campaign.dumps = par2.Campaign.dumps
      && Ferrite_trace.Telemetry.with_boots base.Campaign.telemetry par2.Campaign.reboots
         = Ferrite_trace.Telemetry.with_boots par2.Campaign.telemetry par2.Campaign.reboots
      && store_bytes seq = store_bytes par2)

let test_sb_stats_reflect_mode () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:3) with
      Campaign.seed = 0xBEEFL;
      engine = { Engine.default_config with Engine.step_budget = 100_000 };
    }
  in
  let off = run_campaign ~sb:false cfg in
  check_int "no blocks built with superblocks off" 0
    off.Campaign.cache.Cache_stats.cs_sb_blocks;
  check_int "no translated instructions with superblocks off" 0
    off.Campaign.cache.Cache_stats.cs_sb_insns;
  let on = run_campaign ~sb:true cfg in
  check_bool "translated run retires instructions in blocks" true
    (on.Campaign.cache.Cache_stats.cs_sb_insns > 0);
  check_bool "pre-warm installed entries" true
    (on.Campaign.cache.Cache_stats.cs_prewarmed > 0);
  check_bool "identical records regardless" true
    (off.Campaign.records = on.Campaign.records)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_superblocks"
    [
      ( "fallback edges",
        [
          Alcotest.test_case "risc self-modifying store" `Quick
            test_risc_smc_invalidates;
          Alcotest.test_case "cisc self-modifying store" `Quick
            test_cisc_smc_invalidates;
          Alcotest.test_case "risc mid-block exception" `Quick
            test_risc_midblock_exception;
          Alcotest.test_case "cisc mid-block exception" `Quick
            test_cisc_midblock_exception;
          Alcotest.test_case "risc armed breakpoint" `Quick
            test_risc_breakpoint_forces_precise;
          Alcotest.test_case "risc branch to uncached pc" `Quick
            test_risc_branch_to_uncached;
        ] );
      ( "cache stats",
        [
          Alcotest.test_case "merge saturates" `Quick
            test_cache_stats_merge_saturates;
          Alcotest.test_case "delta clamps" `Quick test_cache_stats_delta_clamps;
          Alcotest.test_case "monotone across restore" `Quick
            test_cache_stats_monotone_across_restore;
        ] );
      ( "cycle cuts",
        [
          Alcotest.test_case "closed loops are cut exactly" `Quick test_cut_loops;
          Alcotest.test_case "open or ticking runs are never cut" `Quick test_never_cut;
        ] );
      ( "differential",
        [
          q prop_superblocks_invisible;
          q prop_cuts_invisible;
          Alcotest.test_case "sb stats reflect mode" `Quick
            test_sb_stats_reflect_mode;
        ] );
    ]
