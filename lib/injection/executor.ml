type trial = Journal.entry * Crash_dump.t option

type outcome = {
  trials : trial array;  (* indexed by trial index *)
  reboots : int;
  cache : Ferrite_machine.Cache_stats.t;  (* diagnostics like reboots *)
}

let no_progress ~done_:_ ~total:_ = ()

(* One trial, through the supervision layer when present: a trial already
   completed by a previous run (journal recovery) is served verbatim from its
   entry — never re-run, so resumed campaigns reproduce uninterrupted ones
   byte for byte — and a freshly-run trial is streamed to the journal before
   the loop moves on, so a kill can only lose the trial in flight. *)
let run_spec ~supervisor ~trace env cache (spec : Trial.spec) =
  let entry (record, stats, trace, dump) =
    ( { Journal.je_index = spec.Trial.index; je_record = record; je_stats = stats; je_trace = trace },
      dump )
  in
  match supervisor with
  | None -> entry (Trial.run ~trace env cache spec)
  | Some sv -> (
    match Supervisor.lookup sv spec.Trial.index with
    | Some e ->
      Supervisor.note_skip sv spec.Trial.index;
      (* journal-served trials carry no dump — the v2 on-disk format predates
         structured dumps, and re-running the trial to recover one would break
         the resumed == uninterrupted byte-identity *)
      (e, None)
    | None ->
      let ((e, _) as trial) = entry (Supervisor.run_trial sv ~trace env cache spec) in
      Supervisor.journal_append sv e;
      trial)

let run ?(progress = no_progress) ?(trace = Ferrite_trace.Tracer.telemetry_only) ?supervisor
    env specs =
  let total = Array.length specs in
  let cache = Trial.cache_create () in
  let trials =
    Array.mapi
      (fun i spec ->
        let trial = run_spec ~supervisor ~trace env cache spec in
        progress ~done_:(i + 1) ~total;
        trial)
      specs
  in
  { trials; reboots = Trial.reboots cache; cache = Trial.cache_stats cache }
