//! The benchmark must not change what it measures: a wrapped run is the
//! bare run, and the storm deployed here is the storm `v-bench engine`
//! runs.

use v_benchmark::deploy::{workload, Scale, WORKLOADS};
use v_benchmark::run::{rep, violations, Measured, Rep};
use v_workloads::boot::{run_boot_storm, BootStormConfig};

fn identity(r: &Rep) -> (u64, v_sim::SimTime, String) {
    (
        r.totals.events_dispatched,
        r.totals.now,
        format!("{:?}", r.totals.kernel),
    )
}

#[test]
fn probe_is_transparent_on_every_workload() {
    for name in WORKLOADS {
        let w = workload(name, 7, Scale::SMALL).expect("known workload");
        let bare = rep(&*w, false);
        let wrapped = rep(&*w, true);
        assert!(bare.attempted() > 0, "{name}: nothing attempted");
        assert_eq!(bare.failed(), 0, "{name}: bare run failed operations");
        assert_eq!(
            identity(&bare),
            identity(&wrapped),
            "{name}: wrapping the clients changed the run"
        );
        assert_eq!(bare.clients, wrapped.clients, "{name}: client reports");
        let stamps = wrapped.stamps.as_ref().expect("traced");
        assert_eq!(stamps.len(), w.plan().len(), "{name}: one log per client");
        assert!(bare.stamps.is_none(), "{name}: bare run recorded stamps");
    }
}

#[test]
fn every_workload_passes_its_own_output_checks() {
    for name in WORKLOADS {
        let w = workload(name, 7, Scale::SMALL).expect("known workload");
        let m = Measured {
            discarded: vec![rep(&*w, false), rep(&*w, false)],
            host: None,
            traced: Some(rep(&*w, true)),
            micro: None,
        };
        let bad = violations(&*w, &m);
        assert!(bad.is_empty(), "{name}: {bad:?}");
    }
}

#[test]
fn storm_deployment_reproduces_run_boot_storm() {
    // 9,934 and 139,534 events are what `v-bench engine` dispatches at
    // these sizes (docs/BENCHMARKS.md): the storm here stays comparable.
    for (n, events) in [(64, 9_934), (256, 139_534)] {
        let reference = run_boot_storm(&BootStormConfig::new(n));
        assert_eq!(reference.loaded, n as u64);
        let scale = Scale {
            storm_clients: n,
            ..Scale::SMALL
        };
        // Any seed: nothing in a fault-free storm draws from it.
        let w = workload("storm", 12345, scale).expect("known workload");
        let ours = rep(&*w, false);
        assert_eq!(ours.failed(), 0);
        assert_eq!(ours.attempted(), n as u64);
        assert_eq!(ours.totals.events_dispatched, events, "n = {n}");
        assert_eq!(ours.totals.events_dispatched, reference.events_dispatched);
        assert_eq!(ours.totals.medium.frames_sent, reference.frames_sent);
        assert_eq!(ours.totals.medium.deliveries, reference.deliveries);
        assert_eq!(ours.totals.sim.scheduled, reference.events_scheduled);
        let sim_ms = ours.totals.now.since(v_sim::SimTime::ZERO).as_millis_f64();
        assert_eq!(sim_ms, reference.sim_ms, "n = {n}");
    }
}
