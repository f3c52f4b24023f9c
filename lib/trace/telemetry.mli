(** Campaign telemetry counters.

    Accumulated by the {!Tracer} independently of its bounded event ring (so
    the counts are exact even when events are dropped), and merged across
    trials and workers by component-wise sums — associative and commutative
    with {!zero} as the unit, so the merged value is independent of the
    worker count.

    {b Telemetry invariants} (checked by tests, relied on by the report):
    - [tl_dumps_sent + tl_dumps_lost] equals the number of classified crashes
      that produced a dump;
    - [tl_activations <= tl_trials + tl_reinjections] — at most one
      activation per trial;
    - [tl_events] counts every recorded event, of which [tl_dropped] fell out
      of the bounded ring; [tl_events - tl_dropped] events are replayable;
    - all fields except [tl_boots] are identical for a sequential run and
      a process-fabric run of the same campaign. *)

type t = {
  tl_trials : int;
  tl_activations : int;
  tl_flips : int;  (** memory + register flips, including re-injections *)
  tl_reinjections : int;  (** §3.3 write-overwrite re-injections *)
  tl_stray_breakpoints : int;  (** breakpoint hits not at the armed target *)
  tl_watchdog_expiries : int;
  tl_exceptions : int;  (** hardware exceptions delivered to the crash path *)
  tl_dumps_sent : int;
  tl_dumps_lost : int;  (** dumps abandoned after every (re)transmission was lost *)
  tl_retransmits : int;  (** dump retransmissions over the lossy channel *)
  tl_retries : int;
      (** supervisor retry attempts recorded in trial traces (only quarantined
          trials carry their failed attempts; a retried-then-successful trial
          keeps its clean trace so records stay worker- and resume-invariant
          — the supervisor's own report tallies those) *)
  tl_quarantines : int;  (** trials quarantined as infrastructure failures *)
  tl_boots : int;  (** worker boots + policy reboots (worker-count-dependent) *)
  tl_events : int;
  tl_dropped : int;
}

val zero : t
val merge : t -> t -> t
val with_boots : t -> int -> t
(** [with_boots t n] sets [tl_boots] (filled in by the campaign from the
    reboot tally, which is per-worker and so not a per-trial sum). *)

val fields : t -> (string * int) list
(** Label/value pairs in a fixed order (report tables, exporters). *)

val to_json : t -> string
(** One-line JSON object. *)

val render : t -> string
(** Multi-line human-readable block. When every event was dropped (a
    counters-only tracer) the [events_dropped] line reads "not retained". *)
