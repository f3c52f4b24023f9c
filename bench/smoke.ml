(* bench-smoke: a seconds-scale slice of the throughput benchmark for CI.

   Runs one tiny campaign three ways — sequential, on a 2-worker process
   fabric, and sequential with every fast path disabled — and exits non-zero
   unless all three produce bit-identical records, telemetry and traces, and
   the cached run actually exercised the caches. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Fabric = Ferrite_fabric.Fabric
module Memory = Ferrite_machine.Memory
module Cache_stats = Ferrite_machine.Cache_stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

let () =
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:12) with
      Campaign.seed = 0x2004L }
  in
  let tracer = Ferrite_trace.Tracer.default_config in
  let seq = Campaign.run ~tracer cfg in
  let par, _ = Fabric.run ~workers:2 ~tracer cfg in
  Memory.set_fast_paths_default false;
  let slow = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default true;
  if seq.Campaign.records <> par.Campaign.records then
    fail "records differ between sequential and fabric runs";
  if seq.Campaign.traces <> par.Campaign.traces then
    fail "event traces differ between sequential and fabric runs";
  if
    Ferrite_trace.Telemetry.with_boots seq.Campaign.telemetry 0
    <> Ferrite_trace.Telemetry.with_boots par.Campaign.telemetry 0
  then fail "telemetry differs between sequential and fabric runs";
  if seq.Campaign.collector <> par.Campaign.collector || seq.Campaign.dumps <> par.Campaign.dumps
  then fail "collector tallies or crash dumps differ between sequential and fabric runs";
  if seq.Campaign.records <> slow.Campaign.records then
    fail "records differ between cached and uncached fast paths";
  if seq.Campaign.traces <> slow.Campaign.traces then
    fail "event traces differ between cached and uncached fast paths";
  if seq.Campaign.telemetry <> slow.Campaign.telemetry then
    fail "telemetry differs between cached and uncached fast paths";
  if seq.Campaign.cache.Cache_stats.cs_decode_hits = 0 then
    fail "cached run reports no decode-cache hits";
  if slow.Campaign.cache.Cache_stats.cs_tlb_hits <> 0 then
    fail "uncached run reports TLB hits";
  Printf.printf
    "bench-smoke ok: %d injections, records identical across worker counts and \
     fast-path modes (%s)\n"
    (List.length seq.Campaign.records)
    (Format.asprintf "%a" Cache_stats.render seq.Campaign.cache)
