(* Campaign-level telemetry: the counters that keep the engine honest.

   Telemetry is accumulated per trial by the tracer (independently of the
   bounded event ring, so it is exact even when events are dropped), merged
   across trials by component-wise sums — associative and commutative, so the
   merged value is identical for every worker count — and surfaced in campaign
   summaries and the report. *)

type t = {
  tl_trials : int;
  tl_activations : int;
  tl_flips : int;  (* memory + register flips, including re-injections *)
  tl_reinjections : int;
  tl_stray_breakpoints : int;
  tl_watchdog_expiries : int;
  tl_exceptions : int;
  tl_dumps_sent : int;
  tl_dumps_lost : int;
  tl_retransmits : int;  (* dump retransmissions over the lossy channel *)
  tl_retries : int;  (* supervisor retry attempts recorded in trial traces *)
  tl_quarantines : int;  (* trials quarantined as infrastructure failures *)
  tl_boots : int;  (* per-worker boots + policy reboots; worker-count-dependent *)
  tl_events : int;  (* events recorded, including those dropped by the ring *)
  tl_dropped : int;
}

let zero =
  {
    tl_trials = 0;
    tl_activations = 0;
    tl_flips = 0;
    tl_reinjections = 0;
    tl_stray_breakpoints = 0;
    tl_watchdog_expiries = 0;
    tl_exceptions = 0;
    tl_dumps_sent = 0;
    tl_dumps_lost = 0;
    tl_retransmits = 0;
    tl_retries = 0;
    tl_quarantines = 0;
    tl_boots = 0;
    tl_events = 0;
    tl_dropped = 0;
  }

let merge a b =
  {
    tl_trials = a.tl_trials + b.tl_trials;
    tl_activations = a.tl_activations + b.tl_activations;
    tl_flips = a.tl_flips + b.tl_flips;
    tl_reinjections = a.tl_reinjections + b.tl_reinjections;
    tl_stray_breakpoints = a.tl_stray_breakpoints + b.tl_stray_breakpoints;
    tl_watchdog_expiries = a.tl_watchdog_expiries + b.tl_watchdog_expiries;
    tl_exceptions = a.tl_exceptions + b.tl_exceptions;
    tl_dumps_sent = a.tl_dumps_sent + b.tl_dumps_sent;
    tl_dumps_lost = a.tl_dumps_lost + b.tl_dumps_lost;
    tl_retransmits = a.tl_retransmits + b.tl_retransmits;
    tl_retries = a.tl_retries + b.tl_retries;
    tl_quarantines = a.tl_quarantines + b.tl_quarantines;
    tl_boots = a.tl_boots + b.tl_boots;
    tl_events = a.tl_events + b.tl_events;
    tl_dropped = a.tl_dropped + b.tl_dropped;
  }

let with_boots t boots = { t with tl_boots = boots }

let fields t =
  [
    ("trials", t.tl_trials);
    ("activations", t.tl_activations);
    ("flips", t.tl_flips);
    ("reinjections", t.tl_reinjections);
    ("stray_breakpoints", t.tl_stray_breakpoints);
    ("watchdog_expiries", t.tl_watchdog_expiries);
    ("exceptions", t.tl_exceptions);
    ("dumps_sent", t.tl_dumps_sent);
    ("dumps_lost", t.tl_dumps_lost);
    ("retransmits", t.tl_retransmits);
    ("retries", t.tl_retries);
    ("quarantines", t.tl_quarantines);
    ("boots", t.tl_boots);
    ("events", t.tl_events);
    ("events_dropped", t.tl_dropped);
  ]

let to_json t =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) (fields t))
  ^ "}"

(* A counters-only tracer drops every event by design; saying so reads
   better than [events_dropped == events], which looks like total loss. *)
let render t =
  String.concat "\n"
    (List.map
       (fun (k, v) ->
         if k = "events_dropped" && v > 0 && v = t.tl_events then
           Printf.sprintf "  %-18s not retained" k
         else Printf.sprintf "  %-18s %d" k v)
       (fields t))
