(** Differential fault-trial runner: generated campaigns executed with the
    fast paths on and off (the reference), asserting byte-identical records,
    traces (and so per-trial telemetry) and collector stats, trial by trial.
    Worker-count invariance is pinned elsewhere (the fabric tests and
    gates): generated specs cannot travel in a wire config. *)

type spec = {
  df_arch : Ferrite_kir.Image.arch;
  df_kind : Ferrite_injection.Target.kind;
  df_seed : int64;
  df_injections : int;
  df_step_budget : int;
  df_model : Ferrite_injection.Fault_model.t;
      (** fault model the generated campaign injects; {!gen_spec} draws from
          the whole algebra so the fuzzer exercises every model *)
  df_targeting : Ferrite_injection.Target.targeting;
}

type mismatch = {
  mm_config : string;  (** which configuration diverged: ["fast"] *)
  mm_what : string;  (** ["records"], ["traces"], ["telemetry"], … *)
  mm_trial : int;  (** first diverging trial index, [-1] if not per-trial *)
}

val describe : spec -> string
val gen_spec : Ferrite_machine.Rng.t -> injections:int -> step_budget:int -> spec

val run_spec : spec -> (unit, mismatch) result
(** Run the whole campaign with the fast paths on and off. *)

val run_trial : spec -> trial:int -> (unit, mismatch) result
(** Replay one trial in isolation (counter-style seeds make the slice exact). *)

val isolate : spec -> (spec * int * mismatch) option
(** For a failing spec: pin the first diverging trial and minimise the step
    budget that still shows the divergence — the minimal (program, flip, tick)
    reproducer.  [None] if the spec does not actually fail. *)
