(** The distributed campaign fabric: one controller, a fleet of worker
    processes, and a byte-identical merge.

    The fabric is Ferrite's only parallel path ({!run} is the [--jobs N]
    dispatch): the campaign's plan → execute → merge decomposition, with
    trials executed by OS processes over stream sockets and merged by the
    same fold as a sequential run ({!Ferrite_injection.Campaign.merge}). The
    controller builds the campaign once — plan and environment (compiled
    image, profiled hot set) — and owns the {!Lease} table and the merge
    arrays; every worker is forked from it, inherits the campaign as
    ordinary values, and owns the expensive part: booting its machine and
    executing trials. Workers self-schedule by leasing trial-index chunks,
    steal work from each other through the controller when the tail drains, may
    join and leave mid-campaign, and are survived by it: a killed worker's
    in-flight chunk is re-leased, and a trial that keeps killing its owners
    is quarantined as {!Ferrite_injection.Outcome.Infrastructure_failure} —
    exactly the in-process supervisor's verdict for a trial that keeps
    failing.

    {b Determinism.} Trial records are pure functions of trial specs
    ({!Ferrite_injection.Trial}), specs are derived counter-style from the
    campaign config, and the controller merges by trial index. So records,
    traces, collector stats, telemetry counters and the result-store bytes
    are byte-identical to a sequential run under {e any} worker count,
    join/leave schedule, kill schedule or wire-chaos seed — only the
    diagnostics ([reboots], [cache], and boots-derived [tl_boots]) depend on
    scheduling. *)

module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor

type report = {
  fb_workers : int;  (** workers that ever joined *)
  fb_results : int;  (** fresh results merged *)
  fb_dup_results : int;  (** retransmitted / post-expiry duplicates dropped *)
  fb_retransmitted : int;  (** result re-sends reported by departing workers *)
  fb_steals : int;  (** steal requests sent to victims *)
  fb_steal_returns : int;  (** non-empty steal returns *)
  fb_expired : int;  (** leases reclaimed by timeout *)
  fb_worker_deaths : int;  (** links that died without a goodbye (hung included) *)
  fb_hung : int;  (** of those deaths, workers declared hung: alive but silent past the heartbeat deadline *)
  fb_requeued : int;  (** trials re-leased after a death *)
  fb_left : int;  (** orderly mid-campaign departures *)
  fb_missing : int;
      (** trials not merged — 0 on a completed campaign, positive only after
          a drain ({!Controller.request_drain}): the salvage state *)
  fb_quarantined : (int * string) list;
      (** poisoned trials (index, reason) — these are the only records that
          may differ from a sequential run, and they differ the same way an
          in-process quarantine does *)
}
(** Fabric bookkeeping — the knobs chaos is allowed to move. Every
    convergence test asserts that records stay identical while {e only}
    these counters change. *)

module Controller : sig
  type t

  val create :
    ?policy:Supervisor.policy ->
    ?chaos:Supervisor.chaos ->
    ?tracer:Ferrite_trace.Tracer.config ->
    ?wire_chaos:Wire.wire_chaos ->
    ?wire_seed:int64 ->
    ?chunk:int ->
    ?lease_timeout:float ->
    ?max_worker_deaths:int ->
    ?heartbeat_timeout:float ->
    ?journal:string ->
    ?resume:bool ->
    Campaign.config ->
    t
  (** A controller with no workers yet. It builds the campaign's plan and
      environment here, once, for every worker it will fork. [chunk]
      defaults to {!Lease.chunk_size} over four workers ({!run_campaign} and {!run} pass
      the chunk for their actual worker count);
      [lease_timeout] (default 5 s) is the liveness backstop for lost
      messages and silent workers; a trial orphaned by more than
      [max_worker_deaths] (default 2) deaths is quarantined. [wire_chaos]
      arms seeded message drop/duplication/reordering on {e every} link, in
      both directions.

      A worker silent for more than [heartbeat_timeout] seconds (default
      30; workers heartbeat every 0.25 s between trials) is declared hung
      and treated as dead — leases reclaimed, trials re-granted — even if
      its process is still running.

      [journal] appends every merged entry (results and quarantines) to a
      campaign journal as it lands, bound to the plan fingerprint exactly
      like the in-process supervisor's; with [resume] the journal's valid
      prefix is recovered first and those trials are never re-granted. An
      existing journal without [resume] is replaced. *)

  val add_worker : ?die_at:int -> ?max_leases:int -> t -> int
  (** Fork a worker process connected over a socketpair; returns its worker
      id. May be called at any time — late joiners are how a killed worker
      is replaced.

      The child inherits the controller's plan, environment, supervision
      policy, chaos plan and tracer config, then leases, executes and
      streams results until the controller says [Bye] (or [max_leases]
      leases are done — the orderly mid-campaign leave). It sends a
      {!Wire.Heartbeat} between trials so the controller can tell a hung
      worker from a busy one. SIGTERM/SIGINT mean {e drain}: finish the
      in-flight trial, flush unacked results, send [Bye] with diagnostics,
      exit cleanly. [die_at] is the crash test hook: the process exits
      without warning just before executing that trial index. *)

  val step : t -> timeout:float -> unit
  (** One event-loop turn: expire stale leases, wait up to [timeout] seconds
      for traffic, absorb messages, detect deaths. *)

  val finished : t -> bool

  val completed : t -> int
  (** Trials merged (or quarantined) so far — kill tests aim mid-campaign. *)

  val workers_alive : t -> int

  val worker_pid : t -> int -> int option
  (** The OS pid behind a worker id (kill tests aim here). *)

  val request_drain : t -> unit
  (** Ask {!finish} to stop granting work and salvage what is merged — the
      SIGTERM/SIGINT path. Only flips a flag; safe from a signal handler. *)

  val draining : t -> bool

  val drive : ?progress:(done_:int -> total:int -> unit) -> t -> unit
  (** {!step} until every trial is merged, a drain is requested, or no
      worker is alive, forking one replacement for every worker death that
      orphaned or poisoned trials while trials remain and no drain is
      requested — so a poison trial is quarantined under any fleet size. A
      death that held no lease is not replaced. [progress] observes
      [done_] = 1, 2, …, each at most once and in order (journal-recovered
      trials included). Follow with {!finish}. *)

  val finish : t -> Campaign.result * report
  (** Drive {!step} until every trial is merged, then exchange goodbyes,
      reap the fleet and build the campaign result. The result's [records],
      [traces], [dumps], [collector] and [telemetry] counters are
      byte-identical to [Campaign.run cfg] — see the module preamble.
      If the controller was given a [policy], [chaos] plan or [journal],
      [supervision] carries the counts a supervised sequential run reports:
      retries behind the merged results, quarantines (worker-side and
      poison), trials resumed from the journal, and the torn-tail bytes its
      recovery discarded ([sup_events] stays empty: the timeline lives in
      the workers). Otherwise it is [None]. Fabric bookkeeping lives in the
      returned {!report}. Raises [Failure] if every worker is gone and trials remain
      (the caller controls the fleet, so an empty fleet is its bug, not a
      hang).

      After {!request_drain}, stops waiting instead: workers get [Bye]
      immediately, the straggler window lands in-flight results, and the
      result is the {e salvage state} — the completed subset merged in
      trial-index order, [fb_missing] counting what was left behind. With a
      [journal] the file is a valid resumable prefix either way. *)
end

val run_campaign :
  ?workers:int ->
  ?policy:Supervisor.policy ->
  ?chaos:Supervisor.chaos ->
  ?tracer:Ferrite_trace.Tracer.config ->
  ?wire_chaos:Wire.wire_chaos ->
  ?wire_seed:int64 ->
  ?chunk:int ->
  ?lease_timeout:float ->
  ?max_worker_deaths:int ->
  ?heartbeat_timeout:float ->
  ?journal:string ->
  ?resume:bool ->
  Campaign.config ->
  Campaign.result * report
(** Create a controller, fork [workers] (default 2) workers and
    {!Controller.drive} them to completion. [chunk] defaults to
    {!Lease.chunk_size} for [workers]. *)

val workers_for_jobs : int -> int
(** The [--jobs N] mapping: [0] means one worker per core, and larger
    counts are clamped to the core count (more workers than cores only
    multiply per-worker boots). Raises [Invalid_argument] on a negative
    count. *)

val run :
  ?workers:int ->
  ?wire_chaos:Wire.wire_chaos ->
  ?drain_on_signal:bool ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?tracer:Ferrite_trace.Tracer.config ->
  ?supervision:Campaign.supervision ->
  Campaign.config ->
  Campaign.result * report option
(** The one parallel dispatch. With [workers] (default 1) below 2 and no
    [wire_chaos] this is [Campaign.run] and no report; otherwise a fleet of
    forked workers ({!Controller.drive}) runs the campaign under
    [supervision]'s policy, chaos plan and journal, and the result equals
    the sequential one (see the preamble). [wire_chaos] arms every link, so
    it forms a fleet of at least 2 workers whatever [workers] says.
    [progress] is {!Controller.drive}'s. With [drain_on_signal],
    SIGTERM/SIGINT drain the fleet for the campaign's duration (see
    {!Controller.finish}). *)
