(* The repository benchmark: three campaign workloads, each measured end to
   end through the real entry points with tracing off, then once more as a
   traced sequential pass that times calls into each layer's public
   functions from outside.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
   with --trace 1. The traced pass always runs, because its records are
   the correctness check: they must equal the untraced run's exactly, or
   the pass would be timing a different program. Any failed check prints
   "MISMATCH: ..." on stderr and exits 1.

   Work per run is fixed by (seed, seconds), never by elapsed time. The
   timed corpus is eight campaigns of [n] injections, where [n] comes from
   the workload's nominal rate; their plans are fixed, so two runs or two
   commits time the same trials. The seed picks one more campaign, the
   checked one, which the traced pass and the correctness checks use. See
   README.md for the metric definitions. *)

module Image = Ferrite_kir.Image
module Boot = Ferrite_kernel.Boot
module System = Ferrite_kernel.System
module Profiler = Ferrite_workload.Profiler
module Runner = Ferrite_workload.Runner
module Workload = Ferrite_workload.Workload
module Rng = Ferrite_machine.Rng
module Counters = Ferrite_machine.Counters
module Cache_stats = Ferrite_machine.Cache_stats
module Campaign = Ferrite_injection.Campaign
module Trial = Ferrite_injection.Trial
module Engine = Ferrite_injection.Engine
module Target = Ferrite_injection.Target
module Collector = Ferrite_injection.Collector
module Outcome = Ferrite_injection.Outcome
module Journal = Ferrite_injection.Journal
module Result_store = Ferrite_injection.Result_store
module Crash_dump = Ferrite_injection.Crash_dump
module Tracer = Ferrite_trace.Tracer
module Telemetry = Ferrite_trace.Telemetry
module Event = Ferrite_trace.Event
module Store = Ferrite_store.Store
module Fabric = Ferrite_fabric.Fabric
module Report = Ferrite.Report

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type exec = Sequential | Fleet of int

type workload = {
  wl_name : string;
  wl_arch : Image.arch;
  wl_kind : Target.kind;
  wl_exec : exec;
  wl_rate : float;
      (* nominal injections/s on a 2-core x86-64 host; sizes the campaign so
         that a run's untraced phase lasts about --seconds *)
}

(* Why these three (see perfbench/README.md for the metric table):
   - p4-stack-seq: the watchdog tail. Hangs are a few percent of trials
     but close to half the time, spent in wild marches through the precise CISC
     interpreter and its decode memo; superblocks, wire and disk barely
     matter here.
   - g4-code-seq: closed-loop hangs spinning inside superblocks, and code
     flips invalidating decoded and translated blocks. It runs
     sequentially: on a 2-domain pool the wall time tripled for minutes
     whenever the host contended one core, since every minor collection
     waits for both domains, and no bound could hold it.
   - g4-register-fleet: no hangs, short trials, so per-trial fixed costs
     (restore, draw, wire, journal, merge, store) carry the weight; the
     control on which a watchdog-tail change should move nothing. *)
let workloads =
  [
    {
      wl_name = "p4-stack-seq";
      wl_arch = Image.Cisc;
      wl_kind = Target.Stack;
      wl_exec = Sequential;
      wl_rate = 170.;
    };
    {
      wl_name = "g4-code-seq";
      wl_arch = Image.Risc;
      wl_kind = Target.Code;
      wl_exec = Sequential;
      wl_rate = 320.;
    };
    {
      wl_name = "g4-register-fleet";
      wl_arch = Image.Risc;
      wl_kind = Target.Register;
      wl_exec = Fleet 2;
      wl_rate = 1100.;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let ratio a b = if b = 0. then 0. else a /. b

(* Linear-interpolated quantile of an unsorted sample (0 on no samples). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let sum = List.fold_left ( +. ) 0.

(* Peak resident set of this process (VmHWM), in MiB. Forked fleet workers
   are separate processes and are not included: this is the controller. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float kb /. 1024.)
        | _ -> loop ()
      in
      loop ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* ------------------------------------------------------------------ *)
(* Table 5/6 row and its gap to the paper                              *)
(* ------------------------------------------------------------------ *)

let slots =
  [
    ("Stack", Target.Stack);
    ("System Registers", Target.Register);
    ("Data", Target.Data);
    ("Code", Target.Code);
  ]

let slot_label kind = fst (List.find (fun (_, k) -> k = kind) slots)

(* The workload's campaign rendered in its Table 5/6 slot; the other three
   slots are empty campaigns, so only this row carries data. *)
let render_table wl summary =
  let summaries =
    List.map
      (fun (label, kind) ->
        ( label,
          if kind = wl.wl_kind then summary else Campaign.summarize_records ~kind [] ))
      slots
  in
  match wl.wl_arch with
  | Image.Cisc -> Report.table5_of summaries
  | Image.Risc -> Report.table6_of summaries

(* Every "12.3%" in a line, in order. *)
let percentages line =
  let n = String.length line in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if line.[i] = '%' then begin
      let j = ref (i - 1) in
      while !j >= 0 && (match line.[!j] with '0' .. '9' | '.' -> true | _ -> false) do
        decr j
      done;
      let s = String.sub line (!j + 1) (i - !j - 1) in
      scan (i + 1) (match float_of_string_opt s with Some v -> v :: acc | None -> acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let contains ~sub s =
  let ls = String.length sub and n = String.length s in
  let rec go i = i + ls <= n && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* Mean absolute gap, in percentage points, between the measured row and
   the paper row over the percentage columns the table renders (activation,
   not manifested, FSV, known crash, hang/unknown; no activation for
   register campaigns, which both rows print as N/A). *)
let paper_gap_pp wl table =
  let label = slot_label wl.wl_kind in
  let row tag =
    match
      List.find_opt (contains ~sub:(label ^ " [" ^ tag ^ "]")) (String.split_on_char '\n' table)
    with
    | Some line -> percentages line
    | None -> failwith ("rendered table has no " ^ tag ^ " row")
  in
  let ours = row "ferrite" and paper = row "paper" in
  if List.length ours <> List.length paper || ours = [] then
    failwith "measured and paper rows render different columns";
  let gaps = List.map2 (fun a b -> Float.abs (a -. b)) ours paper in
  List.fold_left ( +. ) 0. gaps /. float (List.length gaps)

(* ------------------------------------------------------------------ *)
(* Untraced end-to-end run                                             *)
(* ------------------------------------------------------------------ *)

type rep = {
  rp_cfg : Campaign.config;
  rp_result : Campaign.result;
  rp_campaign_s : float;  (* entry-point call to merged result *)
  rp_table_s : float;  (* entry-point call to rendered Table 5/6 row *)
  rp_domains : int;  (* distinct domains that completed trials *)
  rp_fabric : Fabric.report option;
  rp_store : string option;  (* store file bytes (fleet) *)
  rp_journal : Journal.entry list option;  (* the fabric's own journal, recovered (fleet) *)
}

(* Campaign.environment plus the first boot, prewarm and snapshot: what a
   worker pays before its first trial. *)
let setup_once cfg =
  snd
    (time (fun () ->
         let env = Campaign.environment cfg in
         let sys = Boot.boot ~image:env.Trial.env_image cfg.Campaign.arch in
         System.prewarm sys;
         ignore (System.snapshot sys)))

(* The hash Fabric.run_campaign binds its journal to: the plan fingerprint
   under the default supervision with that journal path. *)
let fleet_journal_hash ~journal cfg =
  Journal.plan_hash_of_string
    (Campaign.plan_fingerprint
       ~supervision:{ Campaign.default_supervision with Campaign.sv_journal = Some journal }
       cfg)

let run_rep wl ~tmp cfg =
  (* progress calls are serialized behind the executor's mutex and come
     from the domain that ran the trial: the set of ids is what ran *)
  let seen = ref [] in
  let progress ~done_:_ ~total:_ =
    let id = (Domain.self () :> int) in
    if not (List.mem id !seen) then seen := id :: !seen
  in
  let journal = Filename.concat tmp "fleet.journal" in
  let store = Filename.concat tmp "fleet.store" in
  let t0 = now () in
  let result, fabric =
    match wl.wl_exec with
    | Sequential -> (Campaign.run ~progress cfg, None)
    | Fleet workers ->
      let result, report = Fabric.run_campaign ~workers ~journal cfg in
      (result, Some report)
  in
  let t1 = now () in
  let summary =
    match fabric with
    | None -> Campaign.summarize result
    | Some _ ->
      (* the fleet persists, reads back and renders from the store *)
      remove_if_exists store;
      let w = Store.create store in
      Result_store.append_result w result;
      Store.close w;
      let aggs, _ = Result_store.aggregate store in
      ignore (Sys.opaque_identity (Report.from_store_report aggs));
      (match Result_store.find_agg aggs ~arch:wl.wl_arch ~kind:wl.wl_kind with
      | Some a -> a.Result_store.ag_summary
      | None -> failwith "store holds no aggregate for the campaign")
  in
  ignore (Sys.opaque_identity (render_table wl summary));
  let t2 = now () in
  {
    rp_cfg = cfg;
    rp_result = result;
    rp_campaign_s = t1 -. t0;
    rp_table_s = t2 -. t0;
    rp_domains = List.length !seen;
    rp_fabric = fabric;
    rp_store = Option.map (fun _ -> read_file store) fabric;
    rp_journal =
      Option.map
        (fun _ ->
          (Journal.recover ~path:journal ~plan_hash:(fleet_journal_hash ~journal cfg))
            .Journal.rc_entries)
        fabric;
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)
(* ------------------------------------------------------------------ *)

(* One span per call into a layer: spans of one trial share its index
   (-1 outside trials); the parent is the enclosing span's id (0 for the
   root "pass" span). Kept in memory, written out when the run ends. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_trial : int;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;
}

type spans = { mutable sp_next : int; mutable sp_list : span list }

let span spans ?(trial = -1) ~parent name f =
  spans.sp_next <- spans.sp_next + 1;
  let id = spans.sp_next in
  let t0 = now () in
  let x = f id in
  let t1 = now () in
  spans.sp_list <-
    { sp_id = id; sp_name = name; sp_trial = trial; sp_start = t0; sp_stop = t1; sp_parent = parent }
    :: spans.sp_list;
  x

let span_durations spans name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some (s.sp_stop -. s.sp_start) else None)
    spans.sp_list

let write_spans spans path =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\tname\ttrial\tstart_s\tstop_s\tparent\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%d\t%.9f\t%.9f\t%d\n" s.sp_id s.sp_name s.sp_trial s.sp_start
            s.sp_stop s.sp_parent)
        (List.rev spans.sp_list))

(* Per-trial counts read at the same boundaries as the spans. *)
type sample = {
  sa_class : string;
  sa_engine_s : float;
  sa_insns : int;
  sa_engine_cache : Cache_stats.t;  (* delta over Engine.run_one *)
  sa_restore_pages : int;
  sa_minor_words : float;
}

type traced = {
  tc_records : Outcome.record list;
  tc_stats : Collector.stats list;
  tc_traces : Tracer.trial list;
  tc_dumps : Crash_dump.t option list;
  tc_samples : sample array;
  tc_spans : spans;
  tc_blocks_built : int;  (* superblocks built during trials *)
}

let outcome_classes =
  [ "not_activated"; "not_manifested"; "fsv"; "known_crash"; "hang"; "unknown_crash" ]

let outcome_class = function
  | Outcome.Not_activated -> "not_activated"
  | Outcome.Not_manifested -> "not_manifested"
  | Outcome.Fail_silence_violation -> "fsv"
  | Outcome.Known_crash _ -> "known_crash"
  | Outcome.Hang -> "hang"
  | Outcome.Unknown_crash -> "unknown_crash"
  | Outcome.Infrastructure_failure _ -> "infrastructure"

(* The pieces Trial.run is made of, called one by one: boot, prewarm and
   snapshot once; per trial restore, draw (runner, target, collector) and
   Engine.run_one with a telemetry tracer, stamped exactly as Trial.run
   stamps its trial boundaries. *)
let traced_pass (env : Trial.env) specs =
  let spans = { sp_next = 0; sp_list = [] } in
  span spans ~parent:0 "pass" @@ fun pass ->
  let sys = span spans ~parent:pass "kernel.boot" (fun _ -> Boot.boot ~image:env.Trial.env_image env.Trial.env_arch) in
  span spans ~parent:pass "kernel.prewarm" (fun _ -> System.prewarm sys);
  let snap = span spans ~parent:pass "kernel.snapshot" (fun _ -> System.snapshot sys) in
  let blocks0 = (System.cache_stats sys).Cache_stats.cs_sb_blocks in
  let stamp () =
    let cycles, instructions = Counters.stamp (System.counters sys) in
    let pc = System.pc sys in
    {
      Event.s_cycles = cycles;
      s_instructions = instructions;
      s_pc = pc;
      s_function = Option.map (fun f -> f.Image.fs_name) (Image.function_at sys.System.image pc);
    }
  in
  let run_trial i (spec : Trial.spec) =
    let trial = spec.Trial.index in
    let words0 = Gc.minor_words () in
    span spans ~trial ~parent:pass "trial" (fun parent ->
        let pages =
          if i = 0 then 0
          else
            span spans ~trial ~parent "kernel.restore" (fun _ ->
                let before = System.cache_stats sys in
                System.restore sys snap;
                (Cache_stats.delta ~before ~after:(System.cache_stats sys)).Cache_stats.cs_restore_pages)
        in
        let runner, target, collector =
          span spans ~trial ~parent "injection.draw" (fun _ ->
              let runner =
                Runner.create sys
                  ~ops:(spec.Trial.workload.Workload.wl_ops (Rng.create ~seed:spec.Trial.workload_seed))
              in
              let target =
                match spec.Trial.forced_target with
                | Some t -> t
                | None ->
                  Target.generate sys env.Trial.env_kind ~targeting:env.Trial.env_targeting
                    ~hot:env.Trial.env_hot (Rng.create ~seed:spec.Trial.target_seed)
              in
              let collector =
                Collector.create ~loss_rate:env.Trial.env_collector_loss
                  ~retries:env.Trial.env_collector_retries ~seed:spec.Trial.collector_seed ()
              in
              (runner, target, collector))
        in
        let tracer = Tracer.create Tracer.telemetry_only in
        let dump = ref None in
        let _, insns0 = Counters.stamp (System.counters sys) in
        let cache0 = System.cache_stats sys in
        Tracer.record tracer (stamp ())
          (Event.Trial_begin { trial; target = Target.describe target });
        let record =
          span spans ~trial ~parent "engine.run_one" (fun _ ->
              Engine.run_one ~tracer ~model:env.Trial.env_fault_model
                ~fault_seed:spec.Trial.fault_seed
                ~on_dump:(fun d -> dump := Some d)
                ~sys ~runner ~target ~collector env.Trial.env_engine)
        in
        let engine_s = (let s = List.hd spans.sp_list in s.sp_stop -. s.sp_start) in
        let cache1 = System.cache_stats sys in
        let _, insns1 = Counters.stamp (System.counters sys) in
        let label = Outcome.outcome_label record.Outcome.r_outcome in
        Tracer.record tracer (stamp ()) (Event.Trial_end { trial; outcome = label });
        let trace = Tracer.trial_of tracer ~index:trial ~target:(Target.describe target) ~outcome:label in
        let sample =
          {
            sa_class = outcome_class record.Outcome.r_outcome;
            sa_engine_s = engine_s;
            sa_insns = insns1 - insns0;
            sa_engine_cache = Cache_stats.delta ~before:cache0 ~after:cache1;
            sa_restore_pages = pages;
            sa_minor_words = Gc.minor_words () -. words0;
          }
        in
        (record, Collector.stats collector, trace, !dump, sample))
  in
  let results = Array.to_list (Array.mapi run_trial specs) in
  {
    tc_records = List.map (fun (r, _, _, _, _) -> r) results;
    tc_stats = List.map (fun (_, s, _, _, _) -> s) results;
    tc_traces = List.map (fun (_, _, t, _, _) -> t) results;
    tc_dumps = List.map (fun (_, _, _, d, _) -> d) results;
    tc_samples = Array.of_list (List.map (fun (_, _, _, _, s) -> s) results);
    tc_spans = spans;
    tc_blocks_built = (System.cache_stats sys).Cache_stats.cs_sb_blocks - blocks0;
  }

(* Set-up layers, timed piece by piece: compile and link, profile (boot a
   scratch machine and sample the workload mix, as Campaign.environment
   does), boot, prewarm, snapshot. Median of [k] rounds, in ms. *)
let setup_layers ~k arch =
  let rounds =
    List.init k (fun _ ->
        let image, build = time (fun () -> Boot.build_image arch) in
        let _, profile =
          time (fun () ->
              let samples = Profiler.profile (Boot.boot ~image arch) in
              ignore (Profiler.hot_functions ~coverage:0.95 samples))
        in
        let sys, boot = time (fun () -> Boot.boot ~image arch) in
        let (), prewarm = time (fun () -> System.prewarm sys) in
        let _, snapshot = time (fun () -> System.snapshot sys) in
        [ build; profile; boot; prewarm; snapshot ])
  in
  List.mapi
    (fun i name -> (name, 1000. *. median (List.map (fun r -> List.nth r i) rounds)))
    [ "kir.build_image_ms"; "workload.profile_ms"; "kernel.boot_ms"; "kernel.prewarm_ms"; "kernel.snapshot_ms" ]

(* Persistence and rendering layers over the traced records: the journal
   codec and file, the columnar store, the store-backed report. *)
let persistence_layers ~tmp ~k wl (rep : rep) (tc : traced) =
  let entries =
    List.mapi
      (fun i (((record, stats), trace)) ->
        { Journal.je_index = i; je_record = record; je_stats = stats; je_trace = trace })
      (List.combine (List.combine tc.tc_records tc.tc_stats) tc.tc_traces)
  in
  let n = List.length entries in
  let encode_s =
    median
      (List.init k (fun _ ->
           snd (time (fun () -> List.iter (fun e -> ignore (Journal.encode_entry e)) entries))))
  in
  let framed = List.fold_left (fun acc e -> acc + String.length (Journal.frame (Journal.encode_entry e))) 0 entries in
  let jpath = Filename.concat tmp "traced.journal" in
  remove_if_exists jpath;
  let hash = Journal.plan_hash_of_string (Campaign.plan_fingerprint rep.rp_cfg) in
  let w, _ = Journal.open_for_append ~path:jpath ~plan_hash:hash in
  List.iter (Journal.append w) entries;
  Journal.close w;
  let recovered = ref [] in
  let recover_s =
    median
      (List.init k (fun _ ->
           snd
             (time (fun () ->
                  recovered := (Journal.recover ~path:jpath ~plan_hash:hash).Journal.rc_entries))))
  in
  let spath = Filename.concat tmp "traced.store" in
  let traced_result =
    { rep.rp_result with Campaign.records = tc.tc_records; dumps = tc.tc_dumps }
  in
  let append_s =
    median
      (List.init k (fun _ ->
           remove_if_exists spath;
           snd
             (time (fun () ->
                  let w = Store.create spath in
                  Result_store.append_result w traced_result;
                  Store.close w))))
  in
  let store_bytes = read_file spath in
  let aggs = ref [] in
  let aggregate_s =
    median (List.init k (fun _ -> snd (time (fun () -> aggs := fst (Result_store.aggregate spath)))))
  in
  let render_s =
    median
      (List.init k (fun _ ->
           snd
             (time (fun () ->
                  let body = Report.from_store_report !aggs in
                  let table =
                    match Result_store.find_agg !aggs ~arch:wl.wl_arch ~kind:wl.wl_kind with
                    | Some a -> render_table wl a.Result_store.ag_summary
                    | None -> ""
                  in
                  ignore (Sys.opaque_identity (body, table))))))
  in
  let metrics =
    [
      ("journal.encode_us_per_entry", 1e6 *. ratio encode_s (float n));
      ("journal.bytes_per_trial", ratio (float framed) (float n));
      ("journal.recover_ms", 1000. *. recover_s);
      ("store.append_ms", 1000. *. append_s);
      ("store.bytes_per_row", ratio (float (String.length store_bytes)) (float n));
      ("store.aggregate_ms", 1000. *. aggregate_s);
      ("report.render_ms", 1000. *. render_s);
    ]
  in
  let recovered_ok = List.map (fun e -> e.Journal.je_record) !recovered = tc.tc_records in
  (metrics, store_bytes, recovered_ok)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced pass                              *)
(* ------------------------------------------------------------------ *)

(* Fleet workers that joined and ran to the end (0 off the fleet). *)
let fabric_units (rep : rep) =
  match rep.rp_fabric with
  | Some r -> r.Fabric.fb_workers - r.Fabric.fb_worker_deaths - r.Fabric.fb_left
  | None -> 0

(* [chk] is the untraced run of the plan the pass traced; [seq_s] is a
   sequential untraced Campaign.run of that plan, and [env_s] the
   Campaign.environment the pass was given, so both sides of the tracing
   overhead cover the same work on the same executor. *)
let layer_metrics ~setup ~persistence ~(chk : rep) ~env_s ~seq_s (tc : traced) =
  let samples = Array.to_list tc.tc_samples in
  let n = List.length samples in
  let fn = float n in
  let spans = tc.tc_spans in
  let restore = span_durations spans "kernel.restore" in
  let draw = span_durations spans "injection.draw" in
  let engine = List.map (fun s -> s.sa_engine_s) samples in
  let engine_of xs = sum (List.map (fun s -> s.sa_engine_s) xs) in
  let insns_of xs = float (List.fold_left (fun acc s -> acc + s.sa_insns) 0 xs) in
  let trial_time = sum (span_durations spans "trial") in
  let engine_total = sum engine in
  let insns = insns_of samples in
  let cache =
    List.fold_left (fun acc s -> Cache_stats.merge acc s.sa_engine_cache) Cache_stats.zero samples
  in
  let per_kinsn v = ratio (float v) (insns /. 1000.) in
  let of_class c = List.filter (fun s -> s.sa_class = c) samples in
  let per_class =
    List.concat_map
      (fun c ->
        let xs = of_class c in
        let k = float (List.length xs) in
        [
          ("engine.share." ^ c, ratio (engine_of xs) engine_total);
          ("engine.mean_ms." ^ c, 1000. *. ratio (engine_of xs) k);
          ("engine.insns." ^ c, ratio (insns_of xs) k);
        ])
      outcome_classes
  in
  let hangs = of_class "hang" in
  (* busy time of the sequential pass: what one worker spends on the plan *)
  let busy =
    trial_time +. sum (List.concat_map (span_durations spans) [ "kernel.boot"; "kernel.prewarm"; "kernel.snapshot" ])
  in
  let wall0 = chk.rp_campaign_s in
  let executor_units = chk.rp_domains in
  let fabric = chk.rp_fabric in
  let fabric_units = fabric_units chk in
  let fb f = match fabric with Some r -> float (f r) | None -> 0. in
  let traced_s = env_s +. sum (span_durations spans "pass") in
  setup
  @ [
      ("kernel.restore_us_p50", 1e6 *. median restore);
      ("kernel.restore_share", ratio (sum restore) trial_time);
      ( "kernel.restore_pages_per_trial",
        ratio (float (List.fold_left (fun a s -> a + s.sa_restore_pages) 0 samples)) fn );
      ("injection.draw_us_p50", 1e6 *. median draw);
      ("engine.run_ms_p50", 1000. *. median engine);
      ("engine.run_ms_p99", 1000. *. quantile 0.99 engine);
    ]
  @ per_class
  @ [
      ("cpu.host_ns_per_insn", 1e9 *. ratio engine_total insns);
      ("cpu.host_ns_per_insn.hang", 1e9 *. ratio (engine_of hangs) (insns_of hangs));
      ("cpu.sb_insn_share", ratio (float cache.Cache_stats.cs_sb_insns) insns);
      ("cpu.sb_fallbacks_per_kinsn", per_kinsn cache.Cache_stats.cs_sb_fallbacks);
      ("cpu.sb_blocks_built", float tc.tc_blocks_built);
      ("cpu.decode_slowpath_per_kinsn", per_kinsn cache.Cache_stats.cs_decode_misses);
      ("machine.tlb_misses_per_kinsn", per_kinsn cache.Cache_stats.cs_tlb_misses);
      ("gc.minor_words_per_trial", ratio (sum (List.map (fun s -> s.sa_minor_words) samples)) fn);
      ( "executor.parallel_efficiency",
        if executor_units = 0 then 0. else ratio busy (wall0 *. float executor_units) );
      ("executor.effective_domains", float executor_units);
      ("executor.reboots", float chk.rp_result.Campaign.reboots);
      ( "fabric.parallel_efficiency",
        if fabric_units = 0 then 0. else ratio busy (wall0 *. float fabric_units) );
      ("fabric.effective_workers", float fabric_units);
      ("fabric.steals", fb (fun r -> r.Fabric.fb_steals));
      ("fabric.dup_results", fb (fun r -> r.Fabric.fb_dup_results));
      ("fabric.expired", fb (fun r -> r.Fabric.fb_expired));
    ]
  @ persistence
  @ [ ("trace.overhead_pct", 100. *. (ratio traced_s seq_s -. 1.)) ]

(* Units follow from the naming scheme, so BENCHMARK.json and this file
   cannot disagree silently: the smoke mode compares them. *)
let unit_of name =
  let has sub = contains ~sub name in
  let ends suf =
    let l = String.length suf and n = String.length name in
    n >= l && String.sub name (n - l) l = suf
  in
  match name with
  | "inj_per_s" -> "1/s"
  | "time_to_table_s" | "setup_s" -> "s"
  | "peak_rss_mb" -> "MiB"
  | "paper_gap_pp" -> "pp"
  | "trace.overhead_pct" -> "%"
  | "gc.minor_words_per_trial" -> "words"
  | "kernel.restore_pages_per_trial" -> "pages"
  | _ when has "_ms" -> "ms"
  | _ when has "_us" -> "us"
  | _ when has "_ns_" -> "ns"
  | _ when ends "_per_kinsn" -> "1/kinsn"
  | _ when has "share" || ends "efficiency" -> "ratio"
  | _ when has "bytes" -> "B"
  | _ when has "engine.insns." -> "insns"
  | _ -> "count"

(* ------------------------------------------------------------------ *)
(* End-to-end metrics and correctness                                  *)
(* ------------------------------------------------------------------ *)

(* Injections that produced no Table 5/6 record: quarantined as harness
   failures, or missing from the merge. *)
let failed_of (r : rep) =
  r.rp_cfg.Campaign.injections
  - List.length
      (List.filter
         (fun x -> not (Outcome.is_infrastructure x.Outcome.r_outcome))
         r.rp_result.Campaign.records)

(* [corpus] holds the timed campaigns, [all] every campaign run. *)
let e2e_metrics wl ~rss ~setup ~(corpus : rep list) ~(all : rep list) =
  let attempted = List.fold_left (fun a r -> a + r.rp_cfg.Campaign.injections) 0 all in
  let failed = List.fold_left (fun a r -> a + failed_of r) 0 all in
  let trials = List.fold_left (fun a r -> a + r.rp_cfg.Campaign.injections) 0 corpus in
  let reference = List.hd corpus in
  ( attempted,
    failed,
    [
      ("inj_per_s", float trials /. sum (List.map (fun r -> r.rp_campaign_s) corpus));
      ( "time_to_table_s",
        sum (List.map (fun r -> r.rp_table_s) corpus) /. float (List.length corpus) );
      ("setup_s", median setup);
      ("peak_rss_mb", rss);
      ("completed_share", ratio (float (attempted - failed)) (float attempted));
      ("paper_gap_pp", paper_gap_pp wl (render_table wl (Campaign.summarize reference.rp_result)));
    ] )

(* [chk] is the untraced run of the plan [tc] traced; [seq] the records of
   a sequential Campaign.run of it, when one was made. *)
let checks ~(corpus : rep list) ~(chk : rep) ?seq (tc : traced) ~store_bytes ~recovered_ok =
  let all = chk :: corpus in
  let r0 = chk.rp_result in
  let traced_tl =
    List.fold_left (fun acc t -> Telemetry.merge acc t.Tracer.tr_telemetry) Telemetry.zero tc.tc_traces
  in
  let traced_collector = List.fold_left Collector.merge_stats Collector.zero_stats tc.tc_stats in
  let invariants (r : rep) =
    let tl = r.rp_result.Campaign.telemetry and c = r.rp_result.Campaign.collector in
    let known =
      List.length
        (List.filter
           (fun x -> match x.Outcome.r_outcome with Outcome.Known_crash _ -> true | _ -> false)
           r.rp_result.Campaign.records)
    in
    tl.Telemetry.tl_trials = r.rp_cfg.Campaign.injections
    && tl.Telemetry.tl_dumps_sent = known
    && tl.Telemetry.tl_dumps_sent + tl.Telemetry.tl_dumps_lost
       = c.Collector.st_received + c.Collector.st_gave_up
    && tl.Telemetry.tl_activations <= tl.Telemetry.tl_trials + tl.Telemetry.tl_reinjections
  in
  (* the fabric journals entries as they land: order them by trial index *)
  let journal_records entries =
    List.map
      (fun e -> e.Journal.je_record)
      (List.sort (fun a b -> compare a.Journal.je_index b.Journal.je_index) entries)
  in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (tc.tc_records = r0.Campaign.records, "traced records differ from the untraced run's");
      (tc.tc_dumps = r0.Campaign.dumps, "traced crash dumps differ from the untraced run's");
      ( traced_collector = r0.Campaign.collector,
        "traced collector tallies differ from the untraced run's" );
      ( Telemetry.with_boots traced_tl 0 = Telemetry.with_boots r0.Campaign.telemetry 0,
        "traced telemetry differs from the untraced run's" );
      ( (match seq with None -> true | Some records -> records = tc.tc_records),
        "a sequential Campaign.run's records differ from the traced records" );
      (List.for_all invariants all, "telemetry invariants violated");
      (List.for_all (fun r -> failed_of r = 0) all, "quarantined or missing trials");
      (recovered_ok, "journal recovery of the traced entries lost records");
      ( (match chk.rp_journal with
        | None -> true
        | Some entries -> journal_records entries = tc.tc_records),
        "the fabric's journal differs from the traced records" );
      ( (match chk.rp_store with None -> true | Some bytes -> bytes = store_bytes),
        "fleet store bytes differ from a sequential store of the traced records" );
    ]

(* Deliberately wrong record list, for the smoke test of the checks. *)
let corrupt (tc : traced) =
  match tc.tc_records with
  | [] -> tc
  | r :: rest ->
    let o = if r.Outcome.r_outcome = Outcome.Hang then Outcome.Not_manifested else Outcome.Hang in
    { tc with tc_records = { r with Outcome.r_outcome = o } :: rest }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Seed of the timed corpus's campaigns 1.. (campaign 0 uses the paper
   configuration's own seed). *)
let corpus_seed = 0xBE7C4L

(* Set-up samples taken before every timed campaign. *)
let setup_rounds = 2

let json_number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and corrupt_records = ref false in
  let usage =
    "perfbench.exe --workload {p4-stack-seq|g4-code-seq|g4-register-fleet} --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the untraced phase");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny campaigns, for the benchmark's own tests");
      ("--corrupt-records", Arg.Set corrupt_records, " falsify one traced record (tests the checks)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun w -> w.wl_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !seconds < 1 || !trace < 0 || !trace > 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let tmp = ".perfbench" in
  if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
  (* The timed corpus is fixed, so two runs or two commits time the same
     trials and only the host's noise differs between them. Campaign 0 is
     the reference campaign (the paper configuration with its default seed);
     the others derive from a constant. --seed picks one more campaign of
     half that size, the checked one: it runs once through the entry point,
     then as the traced pass, and the correctness checks and per-layer
     metrics come from it. It is small because the traced pass is
     sequential, and the run's time is better spent on the corpus. *)
  let campaigns = if !smoke then 2 else 8 in
  let n = if !smoke then 16 else max 16 (truncate (wl.wl_rate *. float !seconds /. float campaigns)) in
  let reference = Campaign.default ~arch:wl.wl_arch ~kind:wl.wl_kind ~injections:n in
  let corpus_cfgs =
    List.init campaigns (fun c ->
        if c = 0 then reference
        else { reference with Campaign.seed = Rng.derive ~seed:corpus_seed ~index:c })
  in
  let checked =
    {
      reference with
      Campaign.seed = Rng.derive ~seed:(Int64.of_int !seed) ~index:0;
      injections = max 16 (n / 2);
    }
  in
  let setup = ref [] and rss = ref 0. in
  let corpus =
    List.mapi
      (fun c cfg ->
        (* set-up is short and noisy: sample it [setup_rounds] times before
           every timed campaign and report the median *)
        for _ = 1 to setup_rounds do
          setup := setup_once cfg :: !setup
        done;
        let rep = run_rep wl ~tmp cfg in
        if c = 0 then rss := peak_rss_mb ();
        Printf.printf "campaign %d: %d injections, %.3f s to the merged result, %.3f s to the table\n%!"
          c n rep.rp_campaign_s rep.rp_table_s;
        rep)
      corpus_cfgs
  in
  let chk = run_rep wl ~tmp checked in
  Printf.printf "checked campaign (seed %d): %d injections, %.3f s to the merged result\n" !seed
    checked.Campaign.injections chk.rp_campaign_s;
  let attempted, failed, e2e =
    e2e_metrics wl ~rss:!rss ~setup:!setup ~corpus ~all:(chk :: corpus)
  in
  (match wl.wl_exec with
  | Fleet w -> Printf.printf "fabric: %d workers requested, %d ran to completion\n" w (fabric_units chk)
  | Sequential -> Printf.printf "executor: sequential, %d domain(s) ran trials\n" chk.rp_domains);
  let env, env_s = time (fun () -> Campaign.environment checked) in
  let tc = traced_pass env (Campaign.plan checked) in
  let tc = if !corrupt_records then corrupt tc else tc in
  (* the tracing overhead compares the pass with a sequential untraced run
     of the same plan: the checked run itself where it is sequential *)
  let seq =
    match wl.wl_exec with
    | Fleet _ when !trace = 1 -> Some (time (fun () -> Campaign.run checked))
    | Fleet _ | Sequential -> None
  in
  let k = if !smoke then 1 else 3 in
  let persistence, store_bytes, recovered_ok = persistence_layers ~tmp ~k wl chk tc in
  let failures =
    checks ~corpus ~chk
      ?seq:(Option.map (fun (r, _) -> r.Campaign.records) seq)
      tc ~store_bytes ~recovered_ok
  in
  List.iter (fun f -> prerr_endline ("MISMATCH: " ^ f)) failures;
  Printf.printf "records digest (checked campaign, %d trials): %s\n" (List.length tc.tc_records)
    (Digest.to_hex (Digest.string (Marshal.to_string tc.tc_records [ Marshal.No_sharing ])));
  let metrics =
    if !trace = 1 then begin
      let path = Filename.concat tmp (Printf.sprintf "spans-%s-%d.tsv" wl.wl_name !seed) in
      write_spans tc.tc_spans path;
      Printf.printf "spans: %s\n" path;
      let seq_s = match seq with Some (_, s) -> s | None -> chk.rp_campaign_s in
      layer_metrics ~setup:(setup_layers ~k wl.wl_arch) ~persistence ~chk ~env_s ~seq_s tc
    end
    else e2e
  in
  List.iter (fun (name, v) -> Printf.printf "%-36s %14.6g %s\n" name v (unit_of name)) metrics;
  List.iter remove_if_exists
    (List.map (Filename.concat tmp) [ "fleet.journal"; "fleet.store"; "traced.journal"; "traced.store" ]);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v)
              (unit_of name))
          metrics));
  exit (if failures = [] then 0 else 1)
