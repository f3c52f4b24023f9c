(* Columnar result store: encoding roundtrips, framing/torn-tail recovery,
   cross-session append, worker-count invariance of the file bytes, and the
   byte-identity of store-backed reporting against the in-memory tables. *)

open Ferrite_injection
module Image = Ferrite_kir.Image
module Store = Ferrite_store.Store
module Frame = Ferrite_iofault.Frame

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_store () = Filename.temp_file "ferrite_store" ".fstore"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Edge-value rows: varint length boundaries, zigzag option sentinels, empty
   and control-character strings through the dictionary layer. *)
let edge_rows =
  [
    {
      Store.r_index = 0; r_arch = "cisc"; r_kind = "stack"; r_model = "single_bit";
      r_outcome = "Known Crash"; r_activated = true; r_activation_cycle = Some 0;
      r_cause = Some ""; r_latency = Some 127; r_pc = Some 0xFFFF_FFFF;
      r_function = Some "free_pages_ok+0x70"; r_triage = Some "stack_overwrite";
    };
    {
      Store.r_index = 1; r_arch = "risc"; r_kind = "code"; r_model = "burst:4";
      r_outcome = "Not Manifested"; r_activated = false; r_activation_cycle = None;
      r_cause = None; r_latency = Some 128; r_pc = None; r_function = Some "\x01odd";
      r_triage = None;
    };
    {
      Store.r_index = 0x7FFF_FFFF; r_arch = "cisc"; r_kind = "data"; r_model = "single_bit";
      r_outcome = "Hang"; r_activated = true; r_activation_cycle = Some 0x3FFF_FFFF_FFFF;
      r_cause = None; r_latency = None; r_pc = Some 0; r_function = None;
      r_triage = Some "silent_drop";
    };
  ]

let test_roundtrip () =
  let path = tmp_store () in
  let w = Store.create path in
  List.iter (Store.append w) edge_rows;
  Store.close w;
  let rows, scan = Store.read_all path in
  check_bool "rows roundtrip" true (rows = edge_rows);
  check_int "scan rows" 3 scan.Store.sc_rows;
  check_int "one block" 1 scan.Store.sc_blocks;
  check_int "no torn tail" 0 scan.Store.sc_truncated_bytes;
  Sys.remove path

let test_tiny_blocks () =
  (* block_rows:2 over 8 rows forces four flushed blocks *)
  let path = tmp_store () in
  let many = List.concat [ edge_rows; edge_rows; List.tl edge_rows ] in
  let w = Store.create ~block_rows:2 path in
  List.iter (Store.append w) many;
  check_int "rows_written counts buffered rows" 8 (Store.rows_written w);
  Store.close w;
  let rows, scan = Store.read_all path in
  check_bool "multi-block roundtrip" true (rows = many);
  check_int "four blocks" 4 scan.Store.sc_blocks;
  Sys.remove path

let test_torn_tail_recovery () =
  let path = tmp_store () in
  let w = Store.create ~block_rows:2 path in
  List.iter (Store.append w) edge_rows;
  Store.close w;
  let intact = Store.scan path in
  (* garbage after the last valid frame: reader keeps the valid prefix *)
  write_file path (read_file path ^ "torn!");
  let rows, scan = Store.read_all path in
  check_int "all rows survive garbage tail" 3 (List.length rows);
  check_int "tail counted" 5 scan.Store.sc_truncated_bytes;
  (* cut inside the final frame: its rows are lost, earlier blocks survive *)
  write_file path (String.sub (read_file path) 0 (intact.Store.sc_bytes - 3));
  let rows, scan = Store.read_all path in
  check_int "first block survives a mid-frame cut" 2 (List.length rows);
  check_bool "cut tail counted" true (scan.Store.sc_truncated_bytes > 0);
  Sys.remove path

(* A CRC-valid block whose counts lie (2^33 rows; a 2^50-string dictionary)
   must end the walk like a torn tail, not allocate what it claims. *)
let test_corrupt_counts_end_the_walk () =
  let varint v =
    let b = Buffer.create 10 in
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
        go (v lsr 7)
      end
    in
    go v;
    Buffer.contents b
  in
  let path = tmp_store () in
  let w = Store.create path in
  List.iter (Store.append w) edge_rows;
  Store.close w;
  let intact = read_file path in
  List.iter
    (fun (what, payload) ->
      let bad = Frame.encode payload in
      write_file path (intact ^ bad);
      let rows, scan = Store.read_all path in
      check_bool (what ^ ": the block before survives") true (rows = edge_rows);
      check_int (what ^ ": one valid block") 1 scan.Store.sc_blocks;
      check_int (what ^ ": the lying block is tail") (String.length bad)
        scan.Store.sc_truncated_bytes)
    [
      ("row count 2^33", varint (1 lsl 33));
      ("dictionary size 2^50", varint 1 ^ varint 0 ^ varint (1 lsl 50));
    ];
  Sys.remove path

let test_append_across_sessions () =
  let path = tmp_store () in
  let w = Store.create path in
  List.iter (Store.append w) edge_rows;
  Store.close w;
  (* second session appends; third opens a store with a torn tail, which
     open_append truncates before continuing *)
  let w = Store.open_append path in
  check_int "existing rows counted" 3 (Store.rows_written w);
  List.iter (Store.append w) edge_rows;
  Store.close w;
  write_file path (read_file path ^ "half-written frame");
  let w = Store.open_append path in
  List.iter (Store.append w) (List.tl edge_rows);
  Store.close w;
  let rows, scan = Store.read_all path in
  check_bool "all three sessions readable" true
    (rows = List.concat [ edge_rows; edge_rows; List.tl edge_rows ]);
  check_int "no residual torn tail" 0 scan.Store.sc_truncated_bytes;
  Sys.remove path

(* The concurrency contract (store.mli): concurrent appenders on one path
   interleave whole blocks, never spliced bytes — every row survives exactly
   once and each writer's rows keep their order. Two children open the store
   before either appends (truncation must not race live appends), rendezvous
   over pipes, then race 20 rows each through tiny 3-row blocks. *)
let test_concurrent_append () =
  let path = tmp_store () in
  Store.close (Store.create path);
  let rows_for base n =
    List.init n (fun i ->
        { (List.nth edge_rows (i mod 3)) with Store.r_index = base + i })
  in
  let spawn base n =
    let ready_r, ready_w = Unix.pipe () in
    let go_r, go_w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close ready_r;
      Unix.close go_w;
      let w = Store.open_append ~block_rows:3 path in
      ignore (Unix.write ready_w (Bytes.of_string "r") 0 1);
      ignore (Unix.read go_r (Bytes.create 1) 0 1);
      List.iter (Store.append w) (rows_for base n);
      Store.close w;
      Unix._exit 0
    | pid ->
      Unix.close ready_w;
      Unix.close go_r;
      ignore (Unix.read ready_r (Bytes.create 1) 0 1);
      Unix.close ready_r;
      (pid, go_w)
  in
  let a = spawn 0 20 in
  let b = spawn 1000 20 in
  List.iter (fun (_, go) -> ignore (Unix.write go (Bytes.of_string "g") 0 1)) [ a; b ];
  List.iter
    (fun (pid, go) ->
      Unix.close go;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "concurrent appender died")
    [ a; b ];
  let rows, scan = Store.read_all path in
  check_int "every row survives exactly once" 40 (List.length rows);
  check_int "no spliced or torn bytes" 0 scan.Store.sc_truncated_bytes;
  check_int "fourteen whole blocks" 14 scan.Store.sc_blocks;
  let by_writer base = List.filter (fun r -> r.Store.r_index >= base && r.Store.r_index < base + 1000) rows in
  check_bool "writer A's rows keep their order" true (by_writer 0 = rows_for 0 20);
  check_bool "writer B's rows keep their order" true (by_writer 1000 = rows_for 1000 20);
  Sys.remove path

let test_not_a_store () =
  let path = tmp_store () in
  write_file path "NOTASTOREFILE....";
  (match Store.read_all path with
  | exception Store.Not_a_store _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  Sys.remove path

(* ---------- campaign integration ---------- *)

let campaign kind injections =
  Campaign.default ~arch:Image.Cisc ~kind ~injections

let write_result path result =
  let w = Store.create path in
  Result_store.append_result w result;
  Store.close w

let test_store_bytes_executor_invariant () =
  (* same campaign, sequential vs a 3-worker fabric: byte-identical store
     files (rows are merged in trial order and dictionaries are
     first-appearance) *)
  let cfg = { (campaign Target.Data 30) with Campaign.seed = 0xF00DL } in
  let p1 = tmp_store () and p3 = tmp_store () in
  write_result p1 (Campaign.run cfg);
  write_result p3 (fst (Ferrite_fabric.Fabric.run ~workers:3 cfg));
  check_string "store bytes identical across worker counts" (read_file p1) (read_file p3);
  Sys.remove p1;
  Sys.remove p3

let test_aggregate_matches_in_memory () =
  let cfg = campaign Target.Code 40 in
  let result = Campaign.run cfg in
  let path = tmp_store () in
  write_result path result;
  let aggs, scan = Result_store.aggregate path in
  check_int "rows = injections" 40 scan.Store.sc_rows;
  (match Result_store.find_agg aggs ~arch:Image.Cisc ~kind:Target.Code with
  | None -> Alcotest.fail "campaign agg missing"
  | Some agg ->
    check_bool "summary identical" true (agg.Result_store.ag_summary = Campaign.summarize result);
    check_bool "model summaries identical" true
      (agg.Result_store.ag_models
      = List.map
          (fun (m, rs) -> (m, Campaign.summarize_records ~kind:cfg.Campaign.kind rs))
          (Campaign.group_by_model result));
    check_bool "latencies identical" true
      (agg.Result_store.ag_latencies = Campaign.latencies result);
    let triaged = List.fold_left (fun n (_, c) -> n + c) 0 agg.Result_store.ag_triage in
    let failures =
      List.fold_left
        (fun n (r, d) -> if Triage.of_record r d <> None then n + 1 else n)
        0
        (List.combine result.Campaign.records result.Campaign.dumps)
    in
    check_int "every failure triaged" failures triaged);
  Sys.remove path

(* The acceptance bar: a >=10^5-row store whose Table 5 renders byte-identical
   to the in-memory table over the same records. Campaign records are
   replicated row-wise (a pure data operation), so both sides tally the same
   100k+ records — the store path streams them back through [aggregate]. *)
let test_table5_byte_identical_at_scale () =
  let kinds =
    [
      ("Stack", Target.Stack, 40); ("System Registers", Target.Register, 40);
      ("Data", Target.Data, 40); ("Code", Target.Code, 40);
    ]
  in
  let results =
    List.map (fun (name, kind, n) -> (name, kind, Campaign.run (campaign kind n))) kinds
  in
  let copies = 700 (* 4 kinds x 40 rows x 700 = 112,000 rows *) in
  let path = tmp_store () in
  let w = Store.create path in
  List.iter
    (fun (_, kind, res) ->
      let rows = List.combine res.Campaign.records res.Campaign.dumps in
      for copy = 0 to copies - 1 do
        List.iteri
          (fun i (record, dump) ->
            Store.append w
              (Result_store.row_of ~arch:Image.Cisc ~kind
                 ~index:((copy * List.length rows) + i)
                 record dump))
          rows
      done)
    results;
  Store.close w;
  let aggs, scan = Result_store.aggregate path in
  check_int "store holds 112k rows" 112_000 scan.Store.sc_rows;
  let in_memory =
    Ferrite.Report.table5_of
      (List.map
         (fun (name, kind, res) ->
           let replicated =
             List.concat (List.init copies (fun _ -> res.Campaign.records))
           in
           (name, Campaign.summarize_records ~kind replicated))
         results)
  in
  let from_store =
    Ferrite.Report.table5_of
      (List.map
         (fun (name, kind, _) ->
           match Result_store.find_agg aggs ~arch:Image.Cisc ~kind with
           | Some agg -> (name, agg.Result_store.ag_summary)
           | None -> Alcotest.failf "missing agg for %s" name)
         results)
  in
  check_string "Table 5 byte-identical from the store" in_memory from_store;
  Sys.remove path

let () =
  Alcotest.run "ferrite_store"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "tiny blocks" `Quick test_tiny_blocks;
          Alcotest.test_case "torn tail" `Quick test_torn_tail_recovery;
          Alcotest.test_case "lying counts end the walk" `Quick test_corrupt_counts_end_the_walk;
          Alcotest.test_case "append across sessions" `Quick test_append_across_sessions;
          Alcotest.test_case "concurrent appenders" `Quick test_concurrent_append;
          Alcotest.test_case "bad magic" `Quick test_not_a_store;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "executor-invariant bytes" `Quick test_store_bytes_executor_invariant;
          Alcotest.test_case "aggregate = in-memory" `Quick test_aggregate_matches_in_memory;
          Alcotest.test_case "Table 5 byte-identity at 112k rows" `Slow
            test_table5_byte_identical_at_scale;
        ] );
    ]
