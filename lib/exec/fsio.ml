(* The execution engine's view of Stdx.Fsio: the same interface and
   plans, plus Obs metering — injections surface as
   fsio_faults_injected_total{kind} so a chaos run's fault pressure is
   visible next to the recovery counters it provokes (cache errors,
   retries, quarantines). *)

include Stdx.Fsio

(* Interned when a fault fires, which is rare. *)
let chaos ?(on_fault = ignore) inj =
  Stdx.Fsio.faulty
    ~on_fault:(fun kind ->
      Obs.Metrics.inc
        (Obs.Metrics.counter ~labels:[ ("kind", kind) ] "fsio_faults_injected_total");
      on_fault kind)
    inj
