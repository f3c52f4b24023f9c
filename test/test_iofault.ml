(* Tests for the seeded I/O fault layer: plan determinism, the write_fully
   retry loop (the fix for unchecked Unix.write returns), the ENOSPC byte
   budget, and the qcheck salvage properties — a journal or store written
   under a recoverable fault plan is byte-identical to a fault-free run, any
   truncation of it recovers the longest valid prefix, and resuming from the
   truncation re-creates the uninterrupted file bit for bit. Plus the
   shared framing ([Frame]) every one of those formats is built on, and the
   degrading sink every file writer appends through. *)

open Ferrite_injection
module Iofault = Ferrite_iofault.Iofault
module Frame = Ferrite_iofault.Frame
module Store = Ferrite_store.Store
module Tracer = Ferrite_trace.Tracer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_temp f =
  let path = Filename.temp_file "ferrite_iofault" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* every test leaves the ambient plan disarmed, whatever happens *)
let disarmed f =
  Fun.protect ~finally:(fun () -> Iofault.disarm ()) f

(* ---------- plans ---------- *)

let test_plan_of_seed_deterministic () =
  check_bool "same seed, same plan" true (Iofault.plan_of_seed 7L = Iofault.plan_of_seed 7L);
  (* the ENOSPC arm triggers on about half the seeds; both kinds must exist *)
  let onsets =
    List.init 32 (fun i -> (Iofault.plan_of_seed (Int64.of_int i)).Iofault.pl_enospc_after)
  in
  check_bool "some seeds draw an ENOSPC onset" true (List.exists Option.is_some onsets);
  check_bool "some seeds stay recoverable" true (List.exists Option.is_none onsets);
  List.iter
    (function
      | None -> ()
      | Some n ->
        check_bool "onset in [16 KiB, 64 KiB)" true (n >= 16_384 && n < 65_536))
    onsets

(* ---------- the unchecked-write bug and its fix ---------- *)

(* Before the fault layer, several writers did [ignore (Unix.write fd ...)]:
   correct only while every write is complete. This test constructs the
   counterexample — under a short-write plan a single write really does
   transfer a strict prefix — and then shows [write_fully] absorbing the
   same faults into a byte-identical file. A build that ignored short
   returns would fail the identity check below. *)
let test_short_write_needs_the_loop () =
  disarmed (fun () ->
      let plan =
        { Iofault.recoverable_plan with Iofault.pl_short_write = 0.9; pl_delay = 0.0 }
      in
      Iofault.arm ~plan ~seed:11L ();
      let payload = String.make 4096 'x' in
      (* 1: single writes may be short — the raw-syscall idiom is wrong *)
      let saw_short =
        with_temp (fun path ->
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
            let io = Iofault.wrap_file ~label:"short" fd in
            let short = ref false in
            for _ = 1 to 32 do
              let n =
                try Iofault.write_substring io payload 0 (String.length payload)
                with Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> String.length payload
              in
              if n < String.length payload then short := true
            done;
            Iofault.close io;
            !short)
      in
      check_bool "a single write returned a strict prefix" true saw_short;
      (* 2: write_fully under the same plan leaves the file byte-identical *)
      let chaotic =
        with_temp (fun path ->
            Iofault.arm ~plan ~seed:11L ();
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
            let io = Iofault.wrap_file ~label:"full" fd in
            for _ = 1 to 8 do
              Iofault.write_fully io payload
            done;
            Iofault.close io;
            read_file path)
      in
      let clean =
        with_temp (fun path ->
            Iofault.disarm ();
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
            let io = Iofault.wrap_file ~label:"full" fd in
            for _ = 1 to 8 do
              Iofault.write_fully io payload
            done;
            Iofault.close io;
            read_file path)
      in
      check_bool "write_fully absorbed every fault" true (chaotic = clean);
      check_bool "and faults were actually injected" true
        ((Iofault.stats ()).Iofault.st_faults > 0))

let test_stats_are_seed_deterministic () =
  disarmed (fun () ->
      let run () =
        Iofault.arm ~seed:0x5EEDL ();
        with_temp (fun path ->
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
            let io = Iofault.wrap_file ~label:"det" fd in
            for i = 1 to 64 do
              Iofault.write_fully io (String.make (i * 7) 'y')
            done;
            Iofault.close io);
        Iofault.stats ()
      in
      let a = run () and b = run () in
      check_bool "identical fault streams" true (a = b);
      check_bool "the plan did something" true (a.Iofault.st_faults > 0))

(* ---------- ENOSPC budget ---------- *)

let test_enospc_budget_is_global_and_sticky () =
  disarmed (fun () ->
      let plan = { Iofault.recoverable_plan with Iofault.pl_enospc_after = Some 1000 } in
      Iofault.arm ~plan ~seed:3L ();
      with_temp (fun path ->
          let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
          let io = Iofault.wrap_file ~label:"budget" fd in
          let wrote = ref 0 in
          let hit = ref false in
          (try
             for _ = 1 to 100 do
               Iofault.write_fully io (String.make 64 'z');
               wrote := !wrote + 64
             done
           with Unix.Unix_error (Unix.ENOSPC, _, _) -> hit := true);
          check_bool "the budget ran out" true !hit;
          check_bool "what landed fits the budget" true
            ((Unix.fstat fd).Unix.st_size <= 1000);
          (* the disk stays full: every later write fails, on any handle *)
          (match Iofault.write_fully io "more" with
          | () -> Alcotest.fail "write succeeded on a full disk"
          | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
          with_temp (fun path2 ->
              let fd2 = Unix.openfile path2 [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
              let io2 = Iofault.wrap_file ~label:"budget2" fd2 in
              (match Iofault.write_fully io2 "other file" with
              | () -> Alcotest.fail "a second file dodged the global budget"
              | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
              Iofault.close io2);
          check_bool "enospc counted" true ((Iofault.stats ()).Iofault.st_enospc > 0);
          Iofault.close io))

let test_fsync_failure_is_reported_not_fatal () =
  disarmed (fun () ->
      let plan = { Iofault.recoverable_plan with Iofault.pl_fsync_fail = 1.0 } in
      Iofault.arm ~plan ~seed:5L ();
      with_temp (fun path ->
          let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
          let io = Iofault.wrap_file ~label:"sync" fd in
          (match Iofault.fsync io with
          | () -> Alcotest.fail "fsync should have failed under pl_fsync_fail=1"
          | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
          check_bool "fsync failure counted" true
            ((Iofault.stats ()).Iofault.st_fsync_fail > 0);
          Iofault.close io))

let test_salvage_labels_dedup () =
  disarmed (fun () ->
      Iofault.arm ~seed:1L ();
      Iofault.note_salvage "journal";
      Iofault.note_salvage "store";
      Iofault.note_salvage "journal";
      check_bool "labels, oldest first, deduplicated" true
        (Iofault.salvage_labels () = [ "journal"; "store" ]);
      check_int "each event counted" 3 (Iofault.stats ()).Iofault.st_salvages)

(* ---------- salvage properties: journal ---------- *)

let stamp =
  { Ferrite_trace.Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None }

let mk_entry i =
  let tracer = Tracer.create Tracer.default_config in
  Tracer.record tracer stamp (Ferrite_trace.Event.Trial_begin { trial = i; target = "t" });
  {
    Journal.je_index = i;
    je_record =
      {
        Outcome.r_target = Target.Data_target { addr = 4 * i; bit = i mod 8 };
        r_outcome = (if i mod 2 = 0 then Outcome.Not_manifested else Outcome.Hang);
        r_activated = true;
        r_activation_cycle = Some (100 + i);
        r_model = Fault_model.Single_bit_transient;
      };
    je_stats =
      {
        Collector.st_received = i;
        st_lost = i mod 3;
        st_retransmitted = 0;
        st_gave_up = 0;
        st_dup_dropped = 0;
        st_by_model = (if i > 0 then [ ("single_bit", i) ] else []);
      };
    je_trace = Tracer.trial_of tracer ~index:i ~target:"t" ~outcome:"ok";
  }

let hash = Journal.plan_hash_of_string "iofault-prop-plan"

let write_journal path entries =
  Sys.remove path;
  let w, _ = Journal.open_for_append ~path ~plan_hash:hash in
  List.iter (Journal.append w) entries;
  Journal.close w

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* Satellite property: write a journal under a recoverable fault plan; the
   bytes are identical to fault-free; every truncation recovers the longest
   valid prefix of entries; appending the rest after recovery rebuilds the
   uninterrupted file exactly (the --resume path). *)
let prop_journal_salvage =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"journal: chaos-written, truncated, resumed" ~count:40
       QCheck.(triple (int_range 1 20) (int_range 0 10_000) small_int)
       (fun (n, cut_frac, seed) ->
         disarmed (fun () ->
             with_temp (fun path ->
                 let entries = List.init n mk_entry in
                 Iofault.disarm ();
                 write_journal path entries;
                 let clean = read_file path in
                 Iofault.arm ~plan:Iofault.recoverable_plan ~seed:(Int64.of_int seed) ();
                 write_journal path entries;
                 Iofault.disarm ();
                 let chaotic = read_file path in
                 if chaotic <> clean then
                   QCheck.Test.fail_report "chaos changed the journal bytes";
                 (* truncate anywhere, including mid-header and mid-frame *)
                 let cut = cut_frac * String.length clean / 10_000 in
                 write_file path (String.sub clean 0 cut);
                 let rc = Journal.recover ~path ~plan_hash:hash in
                 let k = List.length rc.Journal.rc_entries in
                 if rc.Journal.rc_entries <> take k entries then
                   QCheck.Test.fail_report "recovery is not a prefix of the entries";
                 if cut = String.length clean && k <> n then
                   QCheck.Test.fail_report "a whole file must recover whole";
                 (* resume: recover, then append what is missing *)
                 let w, rc = Journal.open_for_append ~path ~plan_hash:hash in
                 let k = List.length rc.Journal.rc_entries in
                 List.iteri (fun i e -> if i >= k then Journal.append w e) entries;
                 Journal.close w;
                 read_file path = clean))))

(* ---------- salvage properties: store ---------- *)

let mk_row i =
  {
    Store.r_index = i;
    r_arch = (if i land 1 = 0 then "cisc" else "risc");
    r_kind = "stack";
    r_model = "single_bit";
    r_outcome = (if i mod 3 = 0 then "crash" else "not_manifested");
    r_activated = i mod 4 <> 0;
    r_activation_cycle = (if i mod 2 = 0 then Some (50 + i) else None);
    r_cause = (if i mod 3 = 0 then Some "invalid_op" else None);
    r_latency = (if i mod 3 = 0 then Some (i * 17) else None);
    r_pc = (if i mod 3 = 0 then Some (0x1000 + i) else None);
    r_function = (if i mod 6 = 0 then Some "schedule" else None);
    r_triage = (if i mod 3 = 0 then Some "wild_jump" else None);
  }

let write_store_rows path rows =
  let w = Store.create ~block_rows:5 path in
  List.iter (Store.append w) rows;
  Store.close w

let prop_store_salvage =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"store: chaos-written, truncated, resumed" ~count:40
       QCheck.(triple (int_range 1 40) (int_range 0 10_000) small_int)
       (fun (n, cut_frac, seed) ->
         disarmed (fun () ->
             with_temp (fun path ->
                 let rows = List.init n mk_row in
                 Iofault.disarm ();
                 write_store_rows path rows;
                 let clean = read_file path in
                 Iofault.arm ~plan:Iofault.recoverable_plan ~seed:(Int64.of_int seed) ();
                 write_store_rows path rows;
                 Iofault.disarm ();
                 if read_file path <> clean then
                   QCheck.Test.fail_report "chaos changed the store bytes";
                 (* truncate after the header (a torn header is Not_a_store,
                    the reader's explicit refusal, not a salvage state);
                    the header length is what an empty store occupies *)
                 let header =
                   with_temp (fun p ->
                       Store.close (Store.create p);
                       String.length (read_file p))
                 in
                 let cut =
                   header + (cut_frac * (String.length clean - header) / 10_000)
                 in
                 write_file path (String.sub clean 0 cut);
                 let recovered, _ = Store.read_all path in
                 let k = List.length recovered in
                 if recovered <> take k rows then
                   QCheck.Test.fail_report "recovery is not a prefix of the rows";
                 if cut = String.length clean && k <> n then
                   QCheck.Test.fail_report "a whole file must recover whole";
                 (* resume: append the missing rows; whole blocks survive, so
                    block framing realigns and the bytes match exactly *)
                 let w = Store.open_append ~block_rows:5 path in
                 List.iteri (fun i r -> if i >= k then Store.append w r) rows;
                 Store.close w;
                 read_file path = clean))))

(* ---------- the shared frame ---------- *)

let some s = Some s

let prop_frame_prefix_is_partial =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"frame: every strict prefix is Partial" ~count:100
       QCheck.(string_of_size Gen.(0 -- 300))
       (fun payload ->
         let framed = Frame.encode payload in
         let n = String.length framed in
         let rec prefixes k =
           k >= n
           || (Frame.parse some (String.sub framed 0 k) 0 = Frame.Partial && prefixes (k + 1))
         in
         prefixes 0 && Frame.parse some framed 0 = Frame.Complete (payload, n)))

let test_frame_invalid () =
  let framed = Frame.encode "payload" in
  let invalid s = match Frame.parse some s 0 with Frame.Invalid _ -> true | _ -> false in
  let oversized =
    let b = Buffer.create 16 in
    Frame.put_u32 b (Frame.max_payload + 1);
    Frame.put_u32 b 0;
    Buffer.add_string b "xxxx";
    Buffer.contents b
  in
  check_bool "length over max_payload is Invalid, not Partial" true (invalid oversized);
  let flip i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x20) else c) framed
  in
  check_bool "CRC field mismatch is Invalid" true (invalid (flip 5));
  check_bool "payload byte flip is Invalid" true (invalid (flip 9));
  check_bool "undecodable payload is Invalid" true
    (match Frame.parse (fun _ -> None) framed 0 with Frame.Invalid _ -> true | _ -> false);
  (* the IEEE check value pins the polynomial and reflection *)
  check_int "crc32 check value" 0xCBF43926 (Frame.crc32 "123456789")

let prop_frame_fold_cut =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"frame: fold keeps exactly the frames before any cut" ~count:200
       QCheck.(pair (small_list (string_of_size Gen.(0 -- 40))) (int_range 0 10_000))
       (fun (payloads, cut_frac) ->
         let stream = String.concat "" (List.map Frame.encode payloads) in
         let cut = cut_frac * String.length stream / 10_000 in
         let got, off =
           Frame.fold some (fun acc p -> p :: acc) [] (String.sub stream 0 cut) 0
         in
         (* the frames that end at or before the cut, and where they end *)
         let rec whole acc ends = function
           | p :: rest when ends + 8 + String.length p <= cut ->
             whole (p :: acc) (ends + 8 + String.length p) rest
           | _ -> (acc, ends)
         in
         (got, off) = whole [] 0 payloads))

(* ---------- the degrading sink ---------- *)

let test_sink_keeps_prefix_and_degrades_once () =
  disarmed (fun () ->
      with_temp (fun path ->
          let open_sink ?header ~keep () =
            Iofault.append_sink ~label:"sink-test" ~name:"sink-test" ~after:"test" ?header ~keep
              path
          in
          write_file path "HEADbodytorn";
          let s = open_sink ~header:"HEAD" ~keep:8 () in
          check_bool "append after the kept prefix" true (Iofault.sink_write s "more");
          Iofault.sink_close s;
          check_bool "torn tail cut, no second header" true (read_file path = "HEADbodymore");
          let s = open_sink ~header:"HEAD" ~keep:0 () in
          Iofault.sink_close s;
          check_bool "keep 0 restarts with the header" true (read_file path = "HEAD");
          Iofault.arm
            ~plan:{ Iofault.recoverable_plan with Iofault.pl_enospc_after = Some 6 }
            ~seed:1L ();
          let s = open_sink ~keep:4 () in
          check_bool "the write that hits ENOSPC returns false" false
            (Iofault.sink_write s "0123456789");
          check_bool "later writes are dropped" false (Iofault.sink_write s "x");
          Iofault.sink_close s;
          check_bool "degraded" true (Iofault.sink_degraded s);
          check_int "one salvage event" 1 (Iofault.stats ()).Iofault.st_salvages;
          check_bool "labelled by name" true (Iofault.salvage_labels () = [ "sink-test" ])))

let () =
  Alcotest.run "ferrite_iofault"
    [
      ( "plans",
        [
          Alcotest.test_case "plan_of_seed deterministic" `Quick
            test_plan_of_seed_deterministic;
        ] );
      ( "retry",
        [
          Alcotest.test_case "short writes need the loop" `Quick
            test_short_write_needs_the_loop;
          Alcotest.test_case "stats are seed-deterministic" `Quick
            test_stats_are_seed_deterministic;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "enospc budget global and sticky" `Quick
            test_enospc_budget_is_global_and_sticky;
          Alcotest.test_case "fsync failure reported" `Quick
            test_fsync_failure_is_reported_not_fatal;
          Alcotest.test_case "salvage labels" `Quick test_salvage_labels_dedup;
        ] );
      ("salvage", [ prop_journal_salvage; prop_store_salvage ]);
      ( "frame",
        [
          prop_frame_prefix_is_partial;
          Alcotest.test_case "invalid frames" `Quick test_frame_invalid;
          prop_frame_fold_cut;
        ] );
      ( "sink",
        [
          Alcotest.test_case "keeps the prefix, degrades once" `Quick
            test_sink_keeps_prefix_and_degrades_once;
        ] );
    ]
