(** Drives a workload against a booted system.

    The runner owns no stepping: the caller (a test, the injection campaign,
    or a bench) steps the machine and calls {!tick} periodically; the runner
    issues mailbox requests, validates completions against the golden model,
    and accumulates the fail-silence verdict. *)

type t

type status = Running | Done

val create : Ferrite_kernel.System.t -> ops:Workload.op list -> t

val tick : t -> status
(** Issue pending requests and collect completions. Cheap; call every few
    hundred machine steps. *)

val fsv : t -> bool
(** True if any completed operation failed its golden-model check. *)

val completed_ops : t -> int

val progress : t -> int
(** Requests issued plus requests completed. A {!tick} that leaves it
    unchanged changed nothing: the runner only reads the mailbox. *)

val total_ops : t -> int
