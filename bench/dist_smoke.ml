(* dist-smoke: a seconds-scale distributed-merge gate for CI.

   Runs one short campaign twice — sequentially, and on the fabric with two
   forked workers of which one is SIGKILLed mid-campaign and a replacement
   joins late — and exits non-zero unless both produce bit-identical records,
   traces, dumps, collector stats, telemetry (boots excepted: they are a
   scheduling diagnostic), columnar-store bytes and the rendered per-model
   breakout. The kill must actually land mid-flight, and the death must show
   up in the fabric report — otherwise the gate proved nothing.

   A second stage drives [Fabric.run] through the CLI binary given as the
   first argument: [ferrite inject --wire-chaos] forms a 2-worker fleet on
   any host and must print the plain [-j 1] summary, apart from the
   scheduling diagnostics ([reboots:], [caches:], telemetry [boots]) and the
   [fabric:] report that only a fleet prints. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Result_store = Ferrite_injection.Result_store
module Telemetry = Ferrite_trace.Telemetry
module Fabric = Ferrite_fabric.Fabric

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("dist-smoke: " ^ s); exit 1) fmt

let store_bytes res =
  let path = Filename.temp_file "ferrite_dist_smoke" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

let boots_blind t = Telemetry.with_boots t 0

let inject_summary ferrite args =
  let argv =
    Array.of_list ([ ferrite; "inject"; "-a"; "g4"; "-k"; "register"; "-n"; "60" ] @ args)
  in
  let ic = Unix.open_process_args_in ferrite argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' out
  | _ -> fail "ferrite %s exited abnormally" (String.concat " " (List.tl (Array.to_list argv)))

(* Drop the scheduling diagnostics; report whether a [fabric:] block was seen. *)
let comparable lines =
  let starts p l = String.starts_with ~prefix:p l in
  let rec go in_fabric seen acc = function
    | [] -> (List.rev acc, seen)
    | l :: rest ->
      if starts "fabric:" l || (in_fabric && starts "  " l) then go true true acc rest
      else if starts "reboots:" l || starts "caches:" l || starts "  boots " l then
        go false seen acc rest
      else go false seen (l :: acc) rest
  in
  go false false [] lines

let cli_stage ferrite =
  let plain, plain_fleet = comparable (inject_summary ferrite []) in
  let drilled, drilled_fleet =
    comparable (inject_summary ferrite [ "--wire-chaos"; "0.1,0.05,0.05" ])
  in
  if plain_fleet then fail "plain 'inject' printed a fabric report";
  if not drilled_fleet then fail "'inject --wire-chaos' did not run on a fleet";
  if drilled <> plain then
    fail "'inject --wire-chaos' printed a different summary from plain 'inject'"

let () =
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:48) with
      Campaign.seed = 0x2004L }
  in
  let reference = Campaign.run cfg in
  let t = Fabric.Controller.create cfg in
  let first = Fabric.Controller.add_worker t in
  ignore (Fabric.Controller.add_worker t);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Fabric.Controller.completed t < 4 && Unix.gettimeofday () < deadline do
    Fabric.Controller.step t ~timeout:0.05
  done;
  if Fabric.Controller.finished t then
    fail "campaign finished before the kill could land; grow the campaign";
  (match Fabric.Controller.worker_pid t first with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> fail "forked worker has no pid");
  ignore (Fabric.Controller.add_worker t);
  let r, report = Fabric.Controller.finish t in
  if report.Fabric.fb_worker_deaths <> 1 then
    fail "expected exactly one worker death, saw %d" report.Fabric.fb_worker_deaths;
  if report.Fabric.fb_quarantined <> [] then
    fail "a healthy campaign quarantined %d trial(s)"
      (List.length report.Fabric.fb_quarantined);
  if report.Fabric.fb_workers <> 3 then
    fail "expected three workers ever joined, saw %d" report.Fabric.fb_workers;
  if r.Campaign.records <> reference.Campaign.records then
    fail "records differ between the fabric merge and the sequential run";
  if r.Campaign.traces <> reference.Campaign.traces then
    fail "traces differ between the fabric merge and the sequential run";
  if r.Campaign.dumps <> reference.Campaign.dumps then
    fail "crash dumps differ between the fabric merge and the sequential run";
  if r.Campaign.collector <> reference.Campaign.collector then
    fail "collector stats differ between the fabric merge and the sequential run";
  if boots_blind r.Campaign.telemetry <> boots_blind reference.Campaign.telemetry then
    fail "telemetry differs between the fabric merge and the sequential run";
  if store_bytes r <> store_bytes reference then
    fail "store bytes differ between the fabric merge and the sequential run";
  if Ferrite.Report.model_breakout r <> Ferrite.Report.model_breakout reference then
    fail "the rendered model breakout differs between fabric and sequential";
  cli_stage Sys.argv.(1);
  Printf.printf
    "dist-smoke ok: 48 injections over a 2-worker fabric with one SIGKILL and \
     one late join — records/traces/dumps/collector/telemetry/store bytes \
     byte-identical to the sequential run (%d fresh results, %d re-leased, %d \
     duplicate(s) dropped); 'inject --wire-chaos' summary matches plain 'inject'\n"
    report.Fabric.fb_results report.Fabric.fb_requeued report.Fabric.fb_dup_results
