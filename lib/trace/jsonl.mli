(** JSONL export of trial traces: one JSON object per event, one per line.

    Every line carries the stamp fields — [trial], [cycles],
    [instructions], [pc] (zero-padded lowercase hex string), [fn] (string
    or [null]) and [event] (the {!Event.tag}) — plus the event-specific
    payload fields. The schema is documented in README.md. *)

val event_line : trial:int -> Event.stamp * Event.t -> string
(** One stamped event as one JSON object (no trailing newline). *)

val trial_lines : Tracer.trial -> string list
(** Every retained event of a trial, in order. *)

val write_trials_path : string -> Tracer.trial list -> bool
(** Write every trial's lines, newline-terminated, in trial order, to
    [path] (replacing it), through the seeded I/O fault layer's degrading
    {!Ferrite_iofault.Iofault.sink}: retriable faults are absorbed and the
    file is byte-identical to a fault-free run; ENOSPC/EIO degrade to
    dropping the remaining lines (the on-disk prefix is whole lines only).
    Returns [false] iff the writer degraded. *)
