(* The cache hierarchy (software TLB, dirty-page restore, decode caches) must
   be a pure acceleration: invisible in records, telemetry and event traces.
   Unit tests pin the eviction contract — any write to an executable page,
   including an injected bit flip, must evict the stale decode entry — and a
   differential property replays whole campaigns with the fast paths disabled
   ([Memory.set_fast_paths_default false]) to check bit-identical results. *)

open Ferrite_machine
module Campaign = Ferrite_injection.Campaign
module Fabric = Ferrite_fabric.Fabric
module Engine = Ferrite_injection.Engine
module Target = Ferrite_injection.Target
module Image = Ferrite_kir.Image

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- decode-cache eviction ----------------------------------------------- *)

let code_base = 0xC0100000
let stop_addr = 0xFFFF0000

let test_cisc_poke_evicts () =
  let module Cpu = Ferrite_cisc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
  (* B8 imm32: mov eax, 0x11 *)
  Memory.poke8 mem code_base 0xB8;
  Memory.poke32_le mem (code_base + 1) 0x11;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "first decode" 0x11 cpu.Cpu.regs.(Cpu.eax);
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  let hits, _ = Cpu.decode_cache_stats cpu in
  check_bool "re-decode of an untouched page hits the cache" true (hits > 0);
  (* overwrite the immediate in place: the cached decode is now stale *)
  Memory.poke8 mem (code_base + 1) 0x22;
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "poked byte is decoded, not the cached copy" 0x22
    cpu.Cpu.regs.(Cpu.eax)

let test_risc_flip_evicts () =
  let module Cpu = Ferrite_risc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
  (* addi r3, r0, 5 (li r3, 5) *)
  Memory.poke32_be mem code_base 0x38600005;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "li executed" 5 cpu.Cpu.gpr.(3);
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  let hits, _ = Cpu.decode_cache_stats cpu in
  check_bool "re-decode of an untouched page hits the cache" true (hits > 0);
  (* an injected code error: flip bit 1 of the word (LSB lives at the
     highest byte address on the big-endian fetch path) *)
  Memory.flip_bit mem ~addr:(code_base + 3) ~bit:1;
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "flipped word is decoded, not the cached copy" 7 cpu.Cpu.gpr.(3)

(* Stores issued by the CPU itself (self-modifying code, or fault-corrupted
   code overwriting its neighbours) must evict cached decodes just like
   external pokes: the store path and the injector share the same memory
   write entry points. *)

let test_cisc_cpu_store_evicts () =
  let module Cpu = Ferrite_cisc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rwx;
  (* B8 imm32: mov eax, 0x11 *)
  Memory.poke8 mem code_base 0xB8;
  Memory.poke32_le mem (code_base + 1) 0x11;
  (* C7 05 disp32 imm32: mov dword [code_base+1], 0x22 — rewrites the
     immediate of the instruction above *)
  Memory.poke8 mem (code_base + 5) 0xC7;
  Memory.poke8 mem (code_base + 6) 0x05;
  Memory.poke32_le mem (code_base + 7) (code_base + 1);
  Memory.poke32_le mem (code_base + 11) 0x22;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "first decode" 0x11 cpu.Cpu.regs.(Cpu.eax);
  ignore (Cpu.step cpu) (* the store: self-modifying write via the CPU *);
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "CPU store invalidated the cached decode" 0x22 cpu.Cpu.regs.(Cpu.eax)

let test_risc_cpu_store_evicts () =
  let module Cpu = Ferrite_risc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rwx;
  (* addi r3, r0, 5 (li r3, 5) *)
  Memory.poke32_be mem code_base 0x38600005;
  (* stw r5, 0(r6) — will overwrite the li above with li r3, 7 *)
  Memory.poke32_be mem (code_base + 4) 0x90A60000;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.gpr.(5) <- 0x38600007;
  cpu.Cpu.gpr.(6) <- code_base;
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "li executed" 5 cpu.Cpu.gpr.(3);
  ignore (Cpu.step cpu) (* the store *);
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "CPU store invalidated the cached decode" 7 cpu.Cpu.gpr.(3)

(* Wild execution through a zero-filled page (the P4 hang shape): every pc is
   new, so after the 256-miss bypass streak each step is served by the
   content-keyed memo instead of a decode. Those steps are memo hits, a
   sub-count of the slow-path misses, and count as served in the hit rate. *)
let test_cisc_zero_march_split () =
  let module Cpu = Ferrite_cisc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x2000 ~perm:Memory.perm_rx;
  Memory.map mem ~addr:0xC0200000 ~size:0x1000 ~perm:Memory.perm_rw;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  (* 00 00 = add [eax], al: a two-byte instruction storing into the data page *)
  cpu.Cpu.regs.(Cpu.eax) <- 0xC0200000;
  for _ = 1 to 1000 do
    match Cpu.step cpu with
    | Cpu.Retired -> ()
    | _ -> Alcotest.fail "the zero march stopped"
  done;
  check_int "marched two bytes a step" (code_base + 2000) cpu.Cpu.eip;
  let hits, misses = Cpu.decode_cache_stats cpu in
  let memo, reval = Cpu.decode_service_stats cpu in
  check_int "no pc-keyed hits" 0 hits;
  check_int "every step entered the slow path" 1000 misses;
  (* 256 cold misses, one memo install, then the memo serves the rest *)
  check_int "memo hits" (1000 - 256 - 1) memo;
  check_int "nothing revalidated" 0 reval;
  let cs =
    { Cache_stats.zero with
      Cache_stats.cs_decode_hits = hits; cs_decode_misses = misses; cs_decode_memo_hits = memo }
  in
  Alcotest.(check (float 1e-9)) "memo hits count as served" 0.743 (Cache_stats.decode_hit_rate cs)

(* --- differential property ------------------------------------------------ *)

(* forked fabric workers inherit the fast-path default set here *)
let run_campaign ?(workers = 1) ~fast cfg =
  Memory.set_fast_paths_default fast;
  Fun.protect
    ~finally:(fun () -> Memory.set_fast_paths_default true)
    (fun () -> fst (Fabric.run ~workers ~tracer:Ferrite_trace.Tracer.default_config cfg))

let kinds = [| Target.Stack; Target.Data; Target.Code; Target.Register |]
let arches = [| Image.Cisc; Image.Risc |]

let prop_fast_paths_invisible =
  QCheck.Test.make ~name:"cached == uncached (records, telemetry, traces)"
    ~count:4
    QCheck.(triple (int_bound 0xFFFF) (int_bound 3) (int_bound 1))
    (fun (seed, ki, ai) ->
      let cfg =
        {
          (Campaign.default ~arch:arches.(ai) ~kind:kinds.(ki) ~injections:5) with
          Campaign.seed = Int64.of_int (succ seed);
          engine = { Engine.default_config with Engine.step_budget = 200_000 };
        }
      in
      let base = run_campaign ~fast:false cfg in
      let seq = run_campaign ~fast:true cfg in
      let par = run_campaign ~workers:2 ~fast:true cfg in
      base.Campaign.records = seq.Campaign.records
      && base.Campaign.telemetry = seq.Campaign.telemetry
      && base.Campaign.traces = seq.Campaign.traces
      (* the fabric may differ in boots (hence tl_boots) but nothing else *)
      && base.Campaign.records = par.Campaign.records
      && base.Campaign.traces = par.Campaign.traces
      && Ferrite_trace.Telemetry.with_boots base.Campaign.telemetry par.Campaign.reboots
         = Ferrite_trace.Telemetry.with_boots par.Campaign.telemetry par.Campaign.reboots)

let test_uncached_reports_no_cache_activity () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:3) with
      Campaign.seed = 0xCAFEL;
      engine = { Engine.default_config with Engine.step_budget = 100_000 };
    }
  in
  let r = run_campaign ~fast:false cfg in
  check_int "no tlb hits" 0 r.Campaign.cache.Cache_stats.cs_tlb_hits;
  check_int "no decode hits" 0 r.Campaign.cache.Cache_stats.cs_decode_hits;
  check_int "no fast restores" 0 r.Campaign.cache.Cache_stats.cs_restore_fast;
  let rc = run_campaign ~fast:true cfg in
  check_bool "cached run reports decode hits" true
    (rc.Campaign.cache.Cache_stats.cs_decode_hits > 0);
  check_bool "identical records regardless" true
    (r.Campaign.records = rc.Campaign.records)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_cache"
    [
      ( "decode eviction",
        [
          Alcotest.test_case "cisc poke evicts" `Quick test_cisc_poke_evicts;
          Alcotest.test_case "risc flip evicts" `Quick test_risc_flip_evicts;
          Alcotest.test_case "cisc CPU store evicts" `Quick test_cisc_cpu_store_evicts;
          Alcotest.test_case "risc CPU store evicts" `Quick test_risc_cpu_store_evicts;
          Alcotest.test_case "cisc zero march: memo split" `Quick test_cisc_zero_march_split;
        ] );
      ( "differential",
        [
          q prop_fast_paths_invisible;
          Alcotest.test_case "cache stats reflect mode" `Quick
            test_uncached_reports_no_cache_activity;
        ] );
    ]
