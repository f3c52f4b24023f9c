(** The sequential trial loop: the {e execute} half of the campaign's
    plan → execute → merge pipeline.

    [run] executes a {!Trial.spec} array in index order on one worker and
    hands back each trial's raw result. The parallel path is the process
    fabric ([Ferrite_fabric.Fabric]), whose workers run the same
    {!Trial.run}; both feed their per-trial results to one fold,
    {!Campaign.merge}, so a fabric campaign reproduces a sequential one
    byte for byte. *)

type trial = Journal.entry * Crash_dump.t option
(** One trial's result: the journal entry (record, collector tally, event
    trace) and its structured crash dump — [Some] exactly for [Known_crash]
    records of freshly-run trials. Journal-served trials (resume) carry
    [None]: the v2 on-disk format predates dumps. *)

type outcome = {
  trials : trial array;  (** indexed by {!Trial.spec.index} *)
  reboots : int;  (** boots + policy reboots of the worker *)
  cache : Ferrite_machine.Cache_stats.t;
      (** TLB / dirty-restore / decode-cache counters of the worker's
          machine. Like [reboots], these depend on scheduling and on whether
          the fast paths are enabled — diagnostics only, never folded into
          records or telemetry *)
}

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?trace:Ferrite_trace.Tracer.config ->
  ?supervisor:Supervisor.t ->
  Trial.env ->
  Trial.spec array ->
  outcome
(** Execute every trial in index order. [progress] observes [done_] = 1, 2,
    …, [total], each exactly once.

    [trace] (default {!Ferrite_trace.Tracer.telemetry_only}) sets each
    trial's tracer capacity.

    [supervisor] threads every trial through the supervision layer
    ({!Supervisor.run_trial}): trials already present in its recovery set are
    served from the journal (resume skip) instead of re-run, fresh results
    are streamed to its journal, and contained failures yield quarantined
    {!Outcome.Infrastructure_failure} records. Without a supervisor any
    exception aborts the run. *)
