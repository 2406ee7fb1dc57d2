(** The serving layer's socket interface.

    A re-export of [Stdx.Netio] (the pluggable socket operation record,
    the real backend, seeded fault plans) plus {!chaos}, the
    fault-injecting backend the netchaos harness feeds to
    {!Serve.Daemon} and {!Serve.Client}: every
    injected fault additionally bumps
    [netio_faults_injected_total{kind}] in the process-wide metrics
    registry, so a chaos run's network fault pressure is visible next to
    the recovery counters it provokes ([serve_io_errors_total],
    [serve_evictions_total], [exec_retries_total]). *)

include module type of struct
  include Stdx.Netio
end

val chaos : ?on_fault:(string -> unit) -> injector -> t
(** [Stdx.Netio.faulty] with Obs metering; [on_fault] composes after the
    metric bump. *)

val net_io : ('a, unit, string, exn) format4 -> 'a
(** [net_io fmt ...] is the [Exec.Error.Error (Net_io msg)] exception
    the daemon and the client raise for socket failures. *)
