(* tail-smoke: a seconds-scale gate for exact cycle cutting in CI.

   Runs a fixed-seed G4 code campaign and a fixed-seed P4 stack campaign
   twice — cycle cutting on (the default) and off
   ([Memory.set_cycle_cuts_default false]) — with a retaining 4096-event
   trace ring, and exits non-zero unless both produce bit-identical records,
   traces, crash dumps, telemetry and columnar-store bytes, and the cutting
   run cut exactly the committed number of hung trials (so the gate cannot
   pass without cutting anything). *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Memory = Ferrite_machine.Memory
module Cache_stats = Ferrite_machine.Cache_stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("tail-smoke: " ^ s); exit 1) fmt

let store_bytes res =
  let path = Filename.temp_file "ferrite_tail_smoke" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Ferrite_injection.Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

(* [cuts] is the committed count of trials this plan's cutting run cuts:
   the closed livelocks among its hangs. *)
let run ~name ~arch ~kind ~injections ~cuts =
  let cfg =
    { (Campaign.default ~arch ~kind ~injections) with Campaign.seed = 0x2004L }
  in
  let tracer = Ferrite_trace.Tracer.default_config in
  let on = Campaign.run ~tracer cfg in
  Memory.set_cycle_cuts_default false;
  let off = Campaign.run ~tracer cfg in
  Memory.set_cycle_cuts_default true;
  if on.Campaign.records <> off.Campaign.records then
    fail "%s: records differ with cycle cutting on and off" name;
  if on.Campaign.traces <> off.Campaign.traces then
    fail "%s: event traces differ with cycle cutting on and off" name;
  if on.Campaign.dumps <> off.Campaign.dumps then
    fail "%s: crash dumps differ with cycle cutting on and off" name;
  if on.Campaign.telemetry <> off.Campaign.telemetry then
    fail "%s: telemetry differs with cycle cutting on and off" name;
  if store_bytes on <> store_bytes off then
    fail "%s: store bytes differ with cycle cutting on and off" name;
  if off.Campaign.cache.Cache_stats.cs_cycle_cuts <> 0 then
    fail "%s: the run with cutting off cut a trial" name;
  let got = on.Campaign.cache.Cache_stats.cs_cycle_cuts in
  if got <> cuts then fail "%s: %d trials cut, expected exactly %d" name got cuts;
  on

let () =
  let g4 = run ~name:"g4-code" ~arch:Image.Risc ~kind:Target.Code ~injections:200 ~cuts:3 in
  let p4 = run ~name:"p4-stack" ~arch:Image.Cisc ~kind:Target.Stack ~injections:160 ~cuts:1 in
  let line (r : Campaign.result) =
    Printf.sprintf "%d cut, %d insns skipped" r.Campaign.cache.Cache_stats.cs_cycle_cuts
      r.Campaign.cache.Cache_stats.cs_skipped_insns
  in
  Printf.printf
    "tail-smoke ok: 360 injections, records/traces/dumps/telemetry/store bytes identical \
     with cycle cutting on and off\n  g4-code: %s\n  p4-stack: %s\n"
    (line g4) (line p4)
