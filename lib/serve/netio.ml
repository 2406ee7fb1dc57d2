(* The serving layer's view of Stdx.Netio: the same interface and plans,
   plus Obs metering — injections surface as
   netio_faults_injected_total{kind} so a netchaos run's fault pressure
   is visible next to the recovery counters it provokes (io errors,
   evictions, retries). *)

include Stdx.Netio

(* Interned when a fault fires, which is rare. *)
let chaos ?(on_fault = ignore) inj =
  Stdx.Netio.faulty
    ~on_fault:(fun kind ->
      Obs.Metrics.inc
        (Obs.Metrics.counter ~labels:[ ("kind", kind) ] "netio_faults_injected_total");
      on_fault kind)
    inj

let net_io fmt = Printf.ksprintf (fun m -> Exec.Error.Error (Exec.Error.Net_io m)) fmt
