module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Crash_cause = Ferrite_injection.Crash_cause
module Target = Ferrite_injection.Target
module Table = Ferrite_stats.Table
module Figure = Ferrite_stats.Figure
module Hist = Ferrite_stats.Latency_histogram

(* ------------------------------------------------------------------ *)
(* Static tables                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let header = [ "Processor"; "CPU Clock"; "Memory"; "Distribution"; "Kernel"; "Compiler" ] in
  let ours =
    [
      [ "ferrite CISC (P4 model)"; "simulated"; "paged"; "ferrite"; "KIR kernel"; "ferrite KIR" ];
      [ "ferrite RISC (G4 model)"; "simulated"; "paged"; "ferrite"; "KIR kernel"; "ferrite KIR" ];
    ]
  in
  "Table 1: Experiment Setup Summary (paper, then this reproduction)\n"
  ^ Table.render ~header Paper.table1
  ^ "\n" ^ Table.render ~header ours

let table2 () =
  let rows =
    [
      [ "Activated"; "The corrupted instruction/data is executed/used." ];
      [ "Not Manifested"; "Executed/used, but no visible abnormal impact." ];
      [ "Fail Silence Violation"; "Error erroneously detected, or bad data propagates out." ];
      [ "Crash"; "Operating system stops working (bad trap / panic)." ];
      [ "Hang"; "System resources exhausted; non-operational (e.g. deadlock)." ];
    ]
  in
  "Table 2: Outcome Categories\n"
  ^ Table.render
      ~aligns:[ Table.Left; Table.Left ]
      ~header:[ "Outcome Category"; "Description" ]
      rows

let table3 () =
  let rows =
    [
      [ "NULL Pointer"; "Unable to handle kernel NULL pointer de-reference." ];
      [ "Bad Paging"; "Page fault on a bad (non-NULL) kernel address." ];
      [ "Invalid Instruction"; "Undefined instruction executed (includes BUG's ud2a)." ];
      [ "General Protection Fault"; "Segment/selector violation, write to read-only text." ];
      [ "Kernel Panic"; "Operating system detects an error." ];
      [ "Invalid TSS"; "Task-state segment/back-link corruption (IRET with NT)." ];
      [ "Divide Error"; "Math error." ];
      [ "Bounds Trap"; "BOUND range check failed." ];
    ]
  in
  "Table 3: Crash Cause Categories - Pentium (P4)\n"
  ^ Table.render ~aligns:[ Table.Left; Table.Left ] ~header:[ "Crash Category"; "Description" ] rows

let table4 () =
  let rows =
    [
      [ "Bad Area"; "Kernel access of bad area (DSI/ISI on an unmapped address)." ];
      [ "Illegal Instruction"; "Undefined instruction word executed." ];
      [ "Stack Overflow"; "Kernel stack pointer out of the 8 KiB range (entry wrapper)." ];
      [ "Machine Check"; "Processor-local bus error (e.g. translation disabled)." ];
      [ "Alignment"; "Multi-word operand not word-aligned." ];
      [ "Panic!!!"; "Operating system detects an error (trap/BUG)." ];
      [ "Bus Error"; "Protection fault." ];
      [ "Bad Trap"; "Unknown/unexpected exception." ];
    ]
  in
  "Table 4: Crash Cause Categories - PPC (G4)\n"
  ^ Table.render ~aligns:[ Table.Left; Table.Left ] ~header:[ "Crash Category"; "Description" ] rows

(* ------------------------------------------------------------------ *)
(* Tables 5/6                                                          *)
(* ------------------------------------------------------------------ *)

let denominator (s : Campaign.summary) =
  if s.Campaign.activation_known then max 1 s.Campaign.activated else max 1 s.Campaign.injected

let summary_row label (s : Campaign.summary) =
  let d = denominator s in
  let act_str =
    if s.Campaign.activation_known then
      Printf.sprintf "%d (%s)" s.Campaign.activated (Table.pct s.Campaign.activated s.Campaign.injected)
    else "N/A"
  in
  [
    label;
    string_of_int s.Campaign.injected;
    act_str;
    Table.count_pct s.Campaign.not_manifested d;
    Table.count_pct s.Campaign.fsv d;
    Table.count_pct s.Campaign.known_crash d;
    Table.count_pct s.Campaign.hang_or_unknown d;
  ]

(* one measured + one paper row; takes a summary, not a result, so the same
   renderer serves in-memory campaigns and store aggregates byte-identically *)
let campaign_rows name (s : Campaign.summary) (paper : Paper.campaign_row) =
  let measured = summary_row (name ^ " [ferrite]") s in
  let p = paper in
  let paper_row =
    [
      name ^ " [paper]";
      string_of_int p.Paper.injected;
      (match p.Paper.activated_pct with None -> "N/A" | Some v -> Printf.sprintf "%.1f%%" v);
      Printf.sprintf "%.1f%%" p.Paper.not_manifested_pct;
      Printf.sprintf "%.1f%%" p.Paper.fsv_pct;
      Printf.sprintf "%.1f%%" p.Paper.known_crash_pct;
      Printf.sprintf "%.1f%%" p.Paper.hang_unknown_pct;
    ]
  in
  [ measured; paper_row ]

let activation_table title summaries rows_paper =
  let header =
    [ "Campaign"; "Injected"; "Activated"; "Not Manifested"; "FSV"; "Known Crash"; "Hang/Unknown" ]
  in
  let rows = List.concat (List.map2 (fun (name, s) p -> campaign_rows name s p) summaries rows_paper) in
  title ^ "\n" ^ Table.render ~header rows
  ^ "\n(percentages w.r.t. activated errors; activation w.r.t. injected)"

let suite_summaries suite =
  [
    ("Stack", Campaign.summarize suite.Suite.stack);
    ("System Registers", Campaign.summarize suite.Suite.sysreg);
    ("Data", Campaign.summarize suite.Suite.data);
    ("Code", Campaign.summarize suite.Suite.code);
  ]

let table5_title =
  "Table 5: Statistics on Error Activation and Failure Distribution on P4 Processor"

let table6_title =
  "Table 6: Statistics on Error Activation and Failure Distribution on G4 Processor"

let table5_of summaries =
  activation_table table5_title summaries
    [ Paper.p4_stack; Paper.p4_sysreg; Paper.p4_data; Paper.p4_code ]

let table6_of summaries =
  activation_table table6_title summaries
    [ Paper.g4_stack; Paper.g4_sysreg; Paper.g4_data; Paper.g4_code ]

let table5 suite =
  assert (suite.Suite.arch = Image.Cisc);
  table5_of (suite_summaries suite)

let table6 suite =
  assert (suite.Suite.arch = Image.Risc);
  table6_of (suite_summaries suite)

(* ------------------------------------------------------------------ *)
(* Per-fault-model breakouts (Table 5/6 rows, one group per model)     *)
(* ------------------------------------------------------------------ *)

let arch_short = function Image.Cisc -> "P4" | Image.Risc -> "G4"

let kind_name = function
  | Target.Code -> "code"
  | Target.Stack -> "stack"
  | Target.Data -> "data"
  | Target.Register -> "register"

(* the summary-based core; [groups] in campaign (first-appearance) order *)
let model_breakout_of ?title ~arch ~kind groups =
  let groups =
    List.map
      (fun (tag, s) -> (Printf.sprintf "fault model: %s" tag, [ summary_row tag s ]))
      groups
  in
  let header =
    [ "Model"; "Injected"; "Activated"; "Not Manifested"; "FSV"; "Known Crash"; "Hang/Unknown" ]
  in
  let title =
    match title with
    | Some t -> t
    | None -> Printf.sprintf "Per-fault-model breakout (%s, %s)" (arch_short arch) (kind_name kind)
  in
  title ^ "\n"
  ^ Table.render_grouped ~header groups
  ^ "\n(percentages w.r.t. each model's activated errors; activation w.r.t. injected)"

let model_breakout ?title (r : Campaign.result) =
  let kind = r.Campaign.cfg.Campaign.kind in
  model_breakout_of ?title ~arch:r.Campaign.cfg.Campaign.arch ~kind
    (List.map
       (fun (tag, records) -> (tag, Campaign.summarize_records ~kind records))
       (Campaign.group_by_model r))

(* ------------------------------------------------------------------ *)
(* Crash triage (§5 root-cause families)                               *)
(* ------------------------------------------------------------------ *)

module Triage = Ferrite_injection.Triage
module Result_store = Ferrite_injection.Result_store

let triage_table ?title ~arch ~kind counts =
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  let rows =
    List.map
      (fun (b, n) -> [ Triage.label b; Table.count_pct n (max 1 total) ])
      counts
  in
  let title =
    match title with
    | Some t -> t
    | None ->
      Printf.sprintf "Crash triage (%s, %s): root-cause families of sec. 5"
        (arch_short arch) (kind_name kind)
  in
  title ^ "\n"
  ^ Table.render ~header:[ "Root-cause family"; "Failures" ] rows
  ^ "\n(share w.r.t. all triaged failures of this campaign)"

(* ------------------------------------------------------------------ *)
(* Store-backed report (ferrite report --from-store)                   *)
(* ------------------------------------------------------------------ *)

(* Tables 5/6 need all four campaign kinds for an architecture; partial
   stores fall back to just breakouts and triage for what is present. The
   summaries come from [Result_store.aggregate]'s single pass, so over the
   same records these sections are byte-identical to the in-memory ones. *)
let from_store_report (aggs : Result_store.agg list) =
  let find kind arch = Result_store.find_agg aggs ~arch ~kind in
  let activation arch table_of =
    match
      (find Target.Stack arch, find Target.Register arch, find Target.Data arch,
       find Target.Code arch)
    with
    | Some st, Some rg, Some dt, Some cd ->
      [
        table_of
          [
            ("Stack", st.Result_store.ag_summary);
            ("System Registers", rg.Result_store.ag_summary);
            ("Data", dt.Result_store.ag_summary);
            ("Code", cd.Result_store.ag_summary);
          ];
      ]
    | _ -> []
  in
  let breakouts =
    List.map
      (fun (a : Result_store.agg) ->
        model_breakout_of ~arch:a.Result_store.ag_arch ~kind:a.Result_store.ag_kind
          a.Result_store.ag_models)
      aggs
  in
  let triages =
    List.map
      (fun (a : Result_store.agg) ->
        triage_table ~arch:a.Result_store.ag_arch ~kind:a.Result_store.ag_kind
          a.Result_store.ag_triage)
      aggs
  in
  String.concat "\n\n"
    (activation Image.Cisc table5_of @ activation Image.Risc table6_of @ breakouts @ triages)

(* ------------------------------------------------------------------ *)
(* Campaign telemetry                                                  *)
(* ------------------------------------------------------------------ *)

let telemetry_table suite =
  let campaigns =
    [
      ("Stack", suite.Suite.stack);
      ("Sysreg", suite.Suite.sysreg);
      ("Data", suite.Suite.data);
      ("Code", suite.Suite.code);
    ]
  in
  let header = "Telemetry" :: List.map fst campaigns in
  let field_names =
    List.map fst (Ferrite_trace.Telemetry.fields Ferrite_trace.Telemetry.zero)
  in
  let per =
    List.map
      (fun (_, r) -> Ferrite_trace.Telemetry.fields r.Campaign.telemetry)
      campaigns
  in
  let rows =
    List.map
      (fun name -> name :: List.map (fun fields -> string_of_int (List.assoc name fields)) per)
      field_names
  in
  let arch_name = match suite.Suite.arch with Image.Cisc -> "P4" | Image.Risc -> "G4" in
  Printf.sprintf "Campaign telemetry (%s): injector bookkeeping counters" arch_name
  ^ "\n" ^ Table.render ~header rows
  ^ "\n(every counter except boots is executor-independent)"

(* ------------------------------------------------------------------ *)
(* Crash-cause figures                                                 *)
(* ------------------------------------------------------------------ *)

let cause_distribution (r : Campaign.result) =
  let counts = Campaign.crash_causes r in
  let arch = r.Campaign.cfg.Campaign.arch in
  let labels = Crash_cause.all_labels arch in
  List.filter_map
    (fun label ->
      let n =
        List.fold_left
          (fun acc (c, n) -> if Crash_cause.label c = label then acc + n else acc)
          0 counts
      in
      if n = 0 then None else Some (label, n))
    labels
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let merge_causes rs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (label, n) ->
          Hashtbl.replace tbl label (n + Option.value ~default:0 (Hashtbl.find_opt tbl label)))
        (cause_distribution r))
    rs;
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let paper_chart title entries =
  Figure.bars ~title (List.map (fun (l, p) -> (l, p /. 100.0)) entries)

let figure ~title ~paper_title measured paper_entries =
  Figure.side_by_side (Figure.distribution ~title measured) (paper_chart paper_title paper_entries)

let suite_campaigns s = [ s.Suite.stack; s.Suite.sysreg; s.Suite.data; s.Suite.code ]

let fig4 suite =
  figure
    ~title:"Figure 4: Crash Causes, all campaigns (P4) [ferrite]"
    ~paper_title:"[paper: total 1992]"
    (merge_causes (suite_campaigns suite))
    Paper.fig4_p4_overall

let fig5 suite =
  figure
    ~title:"Figure 5: Crash Causes, all campaigns (G4) [ferrite]"
    ~paper_title:"[paper: total 872]"
    (merge_causes (suite_campaigns suite))
    Paper.fig5_g4_overall

let two_platform_figure ~name ~p4 ~g4 ~paper_p4 ~paper_g4 =
  figure
    ~title:(Printf.sprintf "%s (P4) [ferrite]" name)
    ~paper_title:"[paper]" (cause_distribution p4) paper_p4
  ^ "\n"
  ^ figure
      ~title:(Printf.sprintf "%s (G4) [ferrite]" name)
      ~paper_title:"[paper]" (cause_distribution g4) paper_g4

let fig6 ~p4 ~g4 =
  two_platform_figure ~name:"Figure 6: Crash Causes for Kernel Stack Injection"
    ~p4:p4.Suite.stack ~g4:g4.Suite.stack ~paper_p4:Paper.fig6_p4_stack
    ~paper_g4:Paper.fig6_g4_stack

let fig10 ~p4 ~g4 =
  two_platform_figure ~name:"Figure 10: Crash Causes for System Register Injection"
    ~p4:p4.Suite.sysreg ~g4:g4.Suite.sysreg ~paper_p4:Paper.fig10_p4_sysreg
    ~paper_g4:Paper.fig10_g4_sysreg

let fig11 ~p4 ~g4 =
  two_platform_figure ~name:"Figure 11: Crash Causes for Code Injection" ~p4:p4.Suite.code
    ~g4:g4.Suite.code ~paper_p4:Paper.fig11_p4_code ~paper_g4:Paper.fig11_g4_code

let fig12 ~p4 ~g4 =
  two_platform_figure ~name:"Figure 12: Crash Causes for Kernel Data Injection"
    ~p4:p4.Suite.data ~g4:g4.Suite.data ~paper_p4:Paper.fig12_p4_data
    ~paper_g4:Paper.fig12_g4_data

(* ------------------------------------------------------------------ *)
(* Figure 16: cycles-to-crash                                          *)
(* ------------------------------------------------------------------ *)

let hist_of (r : Campaign.result) = Hist.of_list (Campaign.latencies r)

let latency_panel name p4c g4c =
  let h4 = hist_of p4c and hg = hist_of g4c in
  let entries h =
    List.mapi (fun i label -> (label, (Hist.fractions h).(i))) Hist.bucket_labels
  in
  Figure.side_by_side
    (Figure.bars ~title:(Printf.sprintf "%s: latency, P4 (n=%d)" name (Hist.total h4)) (entries h4))
    (Figure.bars ~title:(Printf.sprintf "%s: latency, G4 (n=%d)" name (Hist.total hg)) (entries hg))

let fig16 ~p4 ~g4 =
  "Figure 16: Distribution of Cycles-to-Crash\n\n"
  ^ latency_panel "(A) Stack" p4.Suite.stack g4.Suite.stack
  ^ "\n" ^ latency_panel "(B) System Register" p4.Suite.sysreg g4.Suite.sysreg
  ^ "\n" ^ latency_panel "(C) Code" p4.Suite.code g4.Suite.code
  ^ "\n" ^ latency_panel "(D) Data" p4.Suite.data g4.Suite.data
  ^ "\nPaper claims:\n"
  ^ String.concat "\n"
      (List.map (fun c -> "  - " ^ c.Paper.lc_text) Paper.fig16_claims)

(* ------------------------------------------------------------------ *)
(* Data-section geometry (the sparseness claim of sec. 5.5)            *)
(* ------------------------------------------------------------------ *)

let data_geometry () =
  let row arch name =
    let image = Ferrite_kernel.Boot.build_image arch in
    let ds = image.Image.img_data in
    let live =
      List.fold_left
        (fun acc (g : Ferrite_kir.Layout.placed_global) -> acc + g.Ferrite_kir.Layout.pg_live_bytes)
        0 ds.Ferrite_kir.Layout.ds_globals
    in
    let structs_total, structs_live =
      List.fold_left
        (fun (t, l) (g : Ferrite_kir.Layout.placed_global) ->
          match g.Ferrite_kir.Layout.pg_struct with
          | Some _ -> (t + g.Ferrite_kir.Layout.pg_size, l + g.Ferrite_kir.Layout.pg_live_bytes)
          | None -> (t, l))
        (0, 0) ds.Ferrite_kir.Layout.ds_globals
    in
    [
      name;
      string_of_int ds.Ferrite_kir.Layout.ds_size;
      string_of_int live;
      Table.pct live ds.Ferrite_kir.Layout.ds_size;
      string_of_int structs_total;
      string_of_int structs_live;
      Table.pct structs_live (max 1 structs_total);
    ]
  in
  "Data-section geometry (same kernel content, two layouts - the sec. 5.5 sparseness)
"
  ^ Table.render
      ~header:
        [ "platform"; "data bytes"; "value bytes"; "density"; "struct bytes";
          "struct values"; "struct density" ]
      [ row Image.Cisc "P4 (packed)"; row Image.Risc "G4 (widened)" ]

(* ------------------------------------------------------------------ *)
(* Shape checks                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Fail | Deferred

type check = { ck_id : string; ck_claim : string; ck_verdict : verdict; ck_detail : string }

let manifestation (r : Campaign.result) =
  let s = Campaign.summarize r in
  let d = denominator s in
  float_of_int (s.Campaign.fsv + s.Campaign.known_crash + s.Campaign.hang_or_unknown)
  /. float_of_int d

let activation (r : Campaign.result) =
  let s = Campaign.summarize r in
  float_of_int s.Campaign.activated /. float_of_int (max 1 s.Campaign.injected)

let cause_share r label =
  let dist = cause_distribution r in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 dist in
  if total = 0 then 0.0
  else float_of_int (try List.assoc label dist with Not_found -> 0) /. float_of_int total

let pctf v = Printf.sprintf "%.1f%%" (100.0 *. v)

let shape_checks ~p4 ~g4 =
  let check ck_id ck_claim pass ck_detail =
    { ck_id; ck_claim; ck_verdict = (if pass then Pass else Fail); ck_detail }
  in
  let m4 k = manifestation (Suite.campaign p4 k) in
  let mg k = manifestation (Suite.campaign g4 k) in
  let overall s =
    let cs = suite_campaigns s in
    let num =
      List.fold_left
        (fun acc r ->
          let su = Campaign.summarize r in
          acc + su.Campaign.fsv + su.Campaign.known_crash + su.Campaign.hang_or_unknown)
        0 cs
    in
    let den = List.fold_left (fun acc r -> acc + denominator (Campaign.summarize r)) 0 cs in
    float_of_int num /. float_of_int den
  in
  let frac_below r cycles = Hist.fraction_below (hist_of r) ~cycles in
  [
    check "activation-similar"
      "error activation is broadly similar on the two platforms (code & stack within ~2.5x)"
      (let ratio a b = if b = 0.0 then 99.0 else max (a /. b) (b /. a) in
       ratio (activation p4.Suite.code) (activation g4.Suite.code) < 2.5
       && ratio (activation p4.Suite.stack) (activation g4.Suite.stack) < 2.5)
      (Printf.sprintf "code %s vs %s; stack %s vs %s"
         (pctf (activation p4.Suite.code)) (pctf (activation g4.Suite.code))
         (pctf (activation p4.Suite.stack)) (pctf (activation g4.Suite.stack)));
    check "manifestation-2x"
      "overall manifestation on the P4 is roughly twice the G4's"
      (overall p4 /. overall g4 > 1.4)
      (Printf.sprintf "P4 %s vs G4 %s (ratio %.2f)" (pctf (overall p4)) (pctf (overall g4))
         (overall p4 /. overall g4));
    check "stack-gap"
      "stack errors manifest far more on the P4 (paper: 56% vs 21%)"
      (m4 Target.Stack /. mg Target.Stack > 1.4)
      (Printf.sprintf "P4 %s vs G4 %s" (pctf (m4 Target.Stack)) (pctf (mg Target.Stack)));
    check "data-gap"
      "data errors mask more on the G4 (paper: 66% vs 22% manifested; direction check — \
       the magnitude is under-reproduced, see EXPERIMENTS.md)"
      (mg Target.Data <= m4 Target.Data +. 0.08)
      (Printf.sprintf "P4 %s vs G4 %s" (pctf (m4 Target.Data)) (pctf (mg Target.Data)));
    check "register-low"
      "register errors manifest least on both platforms (paper: 11% and 5%)"
      (m4 Target.Register < m4 Target.Stack && mg Target.Register < mg Target.Stack)
      (Printf.sprintf "P4 %s, G4 %s" (pctf (m4 Target.Register)) (pctf (mg Target.Register)));
    check "g4-stack-overflow"
      "the G4 reports explicit Stack Overflow for stack errors; the P4 never does (paper: 41.9% vs 0)"
      (cause_share g4.Suite.stack "Stack Overflow" > 0.15
      && cause_share p4.Suite.stack "Stack Overflow" = 0.0)
      (Printf.sprintf "G4 %s, P4 %s"
         (pctf (cause_share g4.Suite.stack "Stack Overflow"))
         (pctf (cause_share p4.Suite.stack "Stack Overflow")));
    check "p4-stack-propagates"
      "undetected P4 stack overflows surface as invalid memory access (Bad Paging + NULL > 60%)"
      (cause_share p4.Suite.stack "Bad Paging" +. cause_share p4.Suite.stack "NULL Pointer" > 0.6)
      (Printf.sprintf "Bad Paging %s + NULL %s"
         (pctf (cause_share p4.Suite.stack "Bad Paging"))
         (pctf (cause_share p4.Suite.stack "NULL Pointer")));
    check "code-illegal-gap"
      "fixed-width decoding yields more illegal-instruction crashes for G4 code errors (paper: 41.5% vs 24.2%)"
      (cause_share g4.Suite.code "Illegal Instruction" > cause_share p4.Suite.code "Invalid Instruction")
      (Printf.sprintf "G4 %s vs P4 %s"
         (pctf (cause_share g4.Suite.code "Illegal Instruction"))
         (pctf (cause_share p4.Suite.code "Invalid Instruction")));
    check "code-memaccess-gap"
      "variable-length resync yields more invalid memory accesses for P4 code errors (paper: 70% vs 50%)"
      (cause_share p4.Suite.code "Bad Paging" +. cause_share p4.Suite.code "NULL Pointer"
      > cause_share g4.Suite.code "Bad Area")
      (Printf.sprintf "P4 %s vs G4 %s"
         (pctf (cause_share p4.Suite.code "Bad Paging" +. cause_share p4.Suite.code "NULL Pointer"))
         (pctf (cause_share g4.Suite.code "Bad Area")));
    (let crashes r = (Campaign.summarize r).Campaign.known_crash in
     let enough = crashes p4.Suite.data >= 20 && crashes g4.Suite.data >= 20 in
     if not enough then
       {
         ck_id = "data-memaccess";
         ck_claim =
           "invalid memory access is the leading data-error crash cause on both platforms \
            (paper: 80% and 89%)";
         ck_verdict = Deferred;
         ck_detail =
           Printf.sprintf
             "deferred: only %d/%d data crashes at this scale (the paper had 96/55 from \
              46,000 injections) - rerun with a larger scale"
             (crashes p4.Suite.data) (crashes g4.Suite.data);
       }
     else
       check "data-memaccess"
         "invalid memory access is the leading data-error crash cause on both platforms \
          (paper: 80% and 89%; here the BKL's magic check redirects a share to panics)"
         (cause_share p4.Suite.data "Bad Paging" +. cause_share p4.Suite.data "NULL Pointer"
          >= 0.45
         && cause_share g4.Suite.data "Bad Area" >= 0.45)
         (Printf.sprintf "P4 %s, G4 %s"
            (pctf
               (cause_share p4.Suite.data "Bad Paging"
               +. cause_share p4.Suite.data "NULL Pointer"))
            (pctf (cause_share g4.Suite.data "Bad Area"))));
    check "16A-stack-latency"
      "G4 stack crashes are short-lived; P4 stack crashes take longer (paper: 80% < 3k vs 80% in 3k-100k)"
      (frac_below g4.Suite.stack 3_000 > frac_below p4.Suite.stack 3_000)
      (Printf.sprintf "fraction under 3k cycles: G4 %s vs P4 %s"
         (pctf (frac_below g4.Suite.stack 3_000)) (pctf (frac_below p4.Suite.stack 3_000)));
    check "16C-code-latency"
      "P4 code crashes are faster than G4 code crashes (paper: 70% < 10k vs 90% > 10k)"
      (frac_below p4.Suite.code 10_000 > frac_below g4.Suite.code 10_000)
      (Printf.sprintf "fraction under 10k cycles: P4 %s vs G4 %s"
         (pctf (frac_below p4.Suite.code 10_000)) (pctf (frac_below g4.Suite.code 10_000)));
    check "16B-register-latency"
      "P4 register errors are long-lived; G4 register errors split between immediate \
       (MSR-style) and long-lived, as in Fig. 16(B)"
      (frac_below p4.Suite.sysreg 10_000 <= frac_below p4.Suite.stack 10_000 +. 0.15
      &&
      let hg = hist_of g4.Suite.sysreg in
      Hist.total hg = 0
      || (Hist.fraction_below hg ~cycles:10_000 > 0.1
         && Hist.fraction_below hg ~cycles:100_000 < 0.98))
      (Printf.sprintf "under 10k: P4 reg %s vs stack %s; G4 reg %s (split: fast MSR + long tail)"
         (pctf (frac_below p4.Suite.sysreg 10_000)) (pctf (frac_below p4.Suite.stack 10_000))
         (pctf (frac_below g4.Suite.sysreg 10_000)));
    check "fsv-small"
      "fail-silence violations are a small fraction for code errors (paper: 1.3% and 2.3%)"
      (let f r =
         let s = Campaign.summarize r in
         float_of_int s.Campaign.fsv /. float_of_int (denominator s)
       in
       f p4.Suite.code < 0.12 && f g4.Suite.code < 0.12)
      (let f r =
         let s = Campaign.summarize r in
         float_of_int s.Campaign.fsv /. float_of_int (denominator s)
       in
       Printf.sprintf "P4 %s, G4 %s" (pctf (f p4.Suite.code)) (pctf (f g4.Suite.code)));
  ]

let render_checks checks =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Shape checks (paper findings vs this reproduction)\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %-22s %s\n%-31s measured: %s\n"
           (match c.ck_verdict with Pass -> "PASS" | Fail -> "FAIL" | Deferred -> "DEFERRED")
           c.ck_id c.ck_claim "" c.ck_detail))
    checks;
  let count v = List.length (List.filter (fun c -> c.ck_verdict = v) checks) in
  Buffer.add_string buf
    (Printf.sprintf "  %d/%d checks hold%s\n" (count Pass) (List.length checks)
       (match count Deferred with 0 -> "" | n -> Printf.sprintf " (%d deferred)" n));
  Buffer.contents buf

let full_report ~p4 ~g4 =
  String.concat "\n\n"
    [
      table1 (); table2 (); table3 (); table4 ();
      table5 p4; table6 g4;
      fig4 p4; fig5 g4;
      fig6 ~p4 ~g4; fig10 ~p4 ~g4; fig11 ~p4 ~g4; fig12 ~p4 ~g4;
      fig16 ~p4 ~g4;
      telemetry_table p4; telemetry_table g4;
      data_geometry ();
      render_checks (shape_checks ~p4 ~g4);
    ]
