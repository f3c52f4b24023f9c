(** Deterministic trial decomposition: the {e plan} half of the campaign's
    plan → execute → merge pipeline.

    A campaign of N injections is decomposed into N trial {!spec}s, each a
    pure value derived counter-style from the campaign seed and the trial
    index ({!Ferrite_machine.Rng.derive}).  Because a spec carries its own
    target/workload/collector seeds, any trial can be run in isolation, in
    any order, in any worker process, and its {!Outcome.record} depends on
    the spec alone — which is what lets a process fabric reproduce the
    sequential {!Executor} loop bit for bit. *)

type spec = {
  index : int;  (** position in the campaign, 0-based; records are merged back in this order *)
  workload : Ferrite_workload.Workload.t;  (** the one benchmark program this trial runs *)
  target_seed : int64;  (** stream for STEP 1 target generation *)
  workload_seed : int64;  (** stream for the workload's operation list *)
  collector_seed : int64;  (** stream for the lossy dump channel *)
  fault_seed : int64;
      (** stream for the fault model itself (extra multi-bit positions,
          intermittent phase); drawn after the three legacy seeds so
          pre-refactor plans are reproduced draw for draw *)
  variant : Ferrite_kernel.Boot.variant;  (** kernel build variant (ablations) *)
  forced_target : Target.t option;
      (** bypass STEP 1 and inject exactly this target ([plan] always sets
          [None]; scenario replays pin the paper's published targets) *)
}

val plan :
  seed:int64 -> injections:int -> variant:Ferrite_kernel.Boot.variant -> spec array
(** Derive the full trial list for a campaign. Pure: same inputs, same specs. *)

(** {2 Execution} *)

type env = {
  env_arch : Ferrite_kir.Image.arch;
  env_kind : Target.kind;
  env_image : Ferrite_kir.Image.t;  (** built once per campaign, shared read-only *)
  env_hot : (string * float) list;  (** profiled function weights for code targets *)
  env_engine : Engine.config;
  env_collector_loss : float;
  env_collector_retries : int;  (** bounded retransmission budget per dump *)
  env_fault_model : Fault_model.t;  (** what kind of corruption every trial lands *)
  env_targeting : Target.targeting;  (** where the STEP-1 draw aims *)
}

type cache
(** A worker's system cache — the paper's "reuse the system after Not
    Activated" STEP 3 policy made explicit.  The cache owns one booted
    machine plus its pristine post-boot snapshot; every trial starts from
    that snapshot (a cheap logical reboot via {!Ferrite_kernel.System.restore}),
    so records never depend on which worker ran the trial or in what order.
    {!reboots} counts boots plus the rollbacks the paper's policy would have
    performed as real reboots (i.e. after manifested runs). *)

val cache_create : unit -> cache
val reboots : cache -> int

val cache_invalidate : cache -> unit
(** Drop the cached machine (but keep the reboot tally). Used by the
    supervisor after a contained harness failure, whose machine may be stuck
    mid-trial in an arbitrary state: the next {!run} performs a full boot, so
    every retry starts from a genuinely fresh machine. *)

val cache_stats : cache -> Ferrite_machine.Cache_stats.t
(** Cache-layer counters of the cache's machine ({!Ferrite_kernel.System.cache_stats});
    {!Ferrite_machine.Cache_stats.zero} if the cache never booted. Like
    {!reboots}, these depend on how trials were scheduled over workers, so
    they are diagnostics — never part of records or telemetry. *)

val run :
  ?trace:Ferrite_trace.Tracer.config ->
  env ->
  cache ->
  spec ->
  Outcome.record * Collector.stats * Ferrite_trace.Tracer.trial * Crash_dump.t option
(** Execute one trial: restore/boot a pristine system from the cache, draw
    the target and workload from the spec's seeds, run the §3.2 automaton,
    and report the record plus the trial's collector delivery tally, its
    event trace, and the structured crash dump ([Some] exactly for
    [Known_crash] outcomes — a dump the collector received).  [trace]
    defaults to {!Ferrite_trace.Tracer.telemetry_only} (exact counters, no
    retained events), so campaigns always collect telemetry for free; pass a
    positive capacity to keep the event timeline. *)
