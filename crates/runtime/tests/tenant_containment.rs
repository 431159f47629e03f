//! Tenant blast-radius containment under the full storm: a fault-looping
//! aggressor, background chaos, warm recovery, and mid-run tenant churn
//! all at once — while every victim tenant keeps its SLA and every
//! ledger balances to the packet.
//!
//! Also the churn half of the NAT/flowtrack reclamation audit: a removed
//! tenant's translation and tracking state must be gone when it returns
//! under a new epoch, and warm restores must never resurrect another
//! epoch's state.
//!
//! Everything here needs the `fault-injection` feature (the workspace
//! test run enables it through `rbs-bench`):
//!
//! ```text
//! cargo test -p rbs-runtime --features fault-injection --test tenant_containment
//! ```
#![cfg(feature = "fault-injection")]

use std::net::Ipv4Addr;
use std::sync::Arc;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::headers::ethernet::MacAddr;
use rbs_netfx::{Packet, PacketBatch};
use rbs_runtime::{BreakerPhase, TenantLaneConfig, TenantLaneRuntime, TenantSpec};

fn http_packet(src_host: u8, sport: u16) -> Packet {
    let mut p = Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, 0, src_host),
        Ipv4Addr::new(192, 0, 2, 1),
        sport,
        80,
        16,
    );
    let hash = packet_flow_hash(&p);
    p.set_cached_flow_hash(hash);
    p
}

/// One round's traffic: `count` one-packet flows, distinct per round so
/// NAT and flowtrack state keep growing.
fn wave(round: u32, count: u32) -> PacketBatch {
    (0..count)
        .map(|i| {
            let n = round * count + i;
            http_packet((n % 23) as u8 + 1, (n % 52_000) as u16 + 1_024)
        })
        .collect()
}

fn population(n: usize, aggressor: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let spec = TenantSpec::new(format!("tenant-{i}")).rate(400, 800);
            if i == aggressor {
                spec.priority(1)
            } else {
                spec.priority(2)
            }
        })
        .collect()
}

fn silence() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// The headline scenario: tenant 1 fault-loops forever, background chaos
/// salts everyone, snapshots and warm restores run on cadence, and
/// tenant 3 is removed and re-added mid-run — victims keep ≥ 99% goodput
/// and every packet is accounted.
#[test]
fn fault_loop_aggressor_is_contained_under_churn_and_chaos() {
    silence();
    let faults = FaultPlan::new(2026)
        .inject(FaultSite::Operator(0), FaultKind::Panic, 800)
        .inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 0, u64::MAX);
    let config = TenantLaneConfig {
        tenants: population(4, 1),
        lanes: 2,
        table_size: 251,
        queue_hwm: 8,
        snapshot_every_ticks: 4,
        faults: Some(Arc::new(faults)),
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    let mut remapped_out = 0;
    let mut remapped_back = 0;
    for round in 0..60 {
        if round == 20 {
            remapped_out = rt.remove_tenant(3).unwrap();
        }
        if round == 40 {
            remapped_back = rt.add_tenant(3).unwrap();
        }
        rt.offer(wave(round, 96));
        rt.step();
    }
    assert_eq!(rt.phase(1), BreakerPhase::Open, "aggressor not contained");
    let report = rt.finish();

    assert_eq!(report.unaccounted_packets(), 0);
    for t in &report.tenants {
        assert_eq!(t.ledger.unaccounted(), 0, "{} leaks packets", t.name);
    }
    // Same-name re-add reverses the removal's remap exactly.
    assert_eq!(remapped_out, remapped_back);
    assert_eq!(report.rebuilds.len(), 2);

    let aggressor = &report.tenants[1];
    assert!(aggressor.opens >= 1, "breaker never opened");
    assert!(
        aggressor.ledger.shed_open > aggressor.ledger.lost,
        "an open breaker should shed far more than the loop destroys"
    );
    for idx in [0usize, 2] {
        let victim = &report.tenants[idx];
        assert!(
            victim.ledger.goodput_ppm() >= 990_000,
            "victim {} dropped to {} ppm",
            victim.name,
            victim.ledger.goodput_ppm()
        );
        assert_eq!(victim.opens, 0, "victim breaker tripped");
        assert_eq!(victim.ledger.shed(), 0, "victim was shed");
    }
    let _ = std::panic::take_hook();
}

/// Churn epoch isolation (the flowtrack/NAT half of the reclamation
/// audit): a tenant that accumulated translation + tracking state and
/// sealed snapshots comes back stateless under a fresh epoch, and the
/// state it grows afterwards is new-epoch state only.
#[test]
fn removed_tenant_returns_stateless_and_snapshots_do_not_cross_epochs() {
    silence();
    let config = TenantLaneConfig {
        tenants: population(3, usize::MAX),
        lanes: 2,
        table_size: 251,
        snapshot_every_ticks: 2,
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    for round in 0..12 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    let before = rt.state_items(1);
    assert!(before > 0, "no NAT/flowtrack state accumulated");
    assert!(rt.snapshots_taken(1) > 0, "no snapshots sealed");
    let offered_before = rt.ledger(1).offered;

    rt.remove_tenant(1).unwrap();
    assert_eq!(rt.state_items(1), 0, "removed tenant still holds state");
    rt.add_tenant(1).unwrap();
    assert_eq!(rt.epoch(1), 1);
    assert_eq!(
        rt.state_items(1),
        0,
        "re-added tenant inherited old-epoch state"
    );
    assert_eq!(
        rt.snapshots_taken(1),
        0,
        "old-epoch snapshots survived the churn"
    );

    // While it was absent, its flows re-homed to the survivors: nothing
    // new lands in its ledger between remove and add.
    assert_eq!(rt.ledger(1).offered, offered_before);

    for round in 12..24 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    let regrown = rt.state_items(1);
    assert!(regrown > 0, "returned tenant processes no traffic");
    assert!(
        regrown <= before,
        "fresh epoch cannot hold more state than the original run"
    );
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    let _ = std::panic::take_hook();
}

/// Warm recovery stays within the epoch: a fault after re-add restores
/// only state sealed since the re-add.
#[test]
fn warm_restore_after_churn_carries_only_new_epoch_state() {
    silence();
    // Tenant 1 panics once, late in the run (well after churn). The
    // window counts tenant 1's executed batches across both epochs: one
    // per round, so occurrence 30 is round 30, eighteen rounds after the
    // re-add.
    let faults =
        FaultPlan::new(5).inject_window(FaultSite::Operator(0), FaultKind::Panic, 1, 30, 31);
    let config = TenantLaneConfig {
        tenants: population(3, usize::MAX),
        lanes: 2,
        table_size: 251,
        snapshot_every_ticks: 2,
        faults: Some(Arc::new(faults)),
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    for round in 0..12 {
        rt.offer(wave(round, 96));
        rt.step();
    }
    rt.remove_tenant(1).unwrap();
    rt.add_tenant(1).unwrap();
    let mut after_churn_peak = 0;
    for round in 12..40 {
        after_churn_peak = after_churn_peak.max(rt.state_items(1));
        rt.offer(wave(round, 96));
        rt.step();
    }
    let report = rt.finish();
    let t = &report.tenants[1];
    assert_eq!(t.faults, 1, "scripted fault did not fire exactly once");
    assert_eq!(t.warm_restores, 1, "fault was not warm-recovered");
    assert!(t.state_items_restored > 0, "warm restore came back empty");
    assert!(
        t.state_items_restored <= report.tenants[1].ledger.processed,
        "restored more items than the epoch ever processed"
    );
    assert_eq!(report.unaccounted_packets(), 0);
    let _ = std::panic::take_hook();
}

/// A flood aggressor is held to its admission contract: the flood sheds
/// at its own bucket and the victims shed and lose nothing. (Which
/// batches the lane high-water mark sheds when backlog does build is
/// pinned by the `hwm_sheds_lowest_priority_resident` unit test.)
#[test]
fn flood_aggressor_sheds_at_admission_and_spares_victims() {
    silence();
    let mut tenants = population(4, 1);
    // The flood tenant gets a tight admission contract and hammers it.
    tenants[1].rate_per_tick = 20;
    tenants[1].burst = 40;
    let config = TenantLaneConfig {
        tenants,
        lanes: 2,
        table_size: 251,
        queue_hwm: 4,
        ..TenantLaneConfig::default()
    };
    let mut rt = TenantLaneRuntime::new(config).unwrap();
    for round in 0..40 {
        rt.offer(wave(round, 320));
        rt.step();
    }
    let report = rt.finish();
    assert_eq!(report.unaccounted_packets(), 0);
    let flood = &report.tenants[1];
    assert!(
        flood.ledger.shed_admission > 0,
        "flood never hit its bucket"
    );
    for idx in [0usize, 2, 3] {
        let victim = &report.tenants[idx];
        assert_eq!(
            victim.ledger.shed(),
            0,
            "victim {} shed while the flood ran",
            victim.name
        );
        assert_eq!(victim.ledger.lost, 0);
    }
    let _ = std::panic::take_hook();
}

/// The whole storm is replayable: two runs with identical configuration
/// produce identical ledgers, breaker journals, and rebuild records.
/// Only the ledger's steal credit depends on thread scheduling.
#[test]
fn chaotic_multi_tenant_run_is_deterministic() {
    silence();
    let run = || {
        let faults = FaultPlan::new(99)
            .inject(FaultSite::Operator(0), FaultKind::Panic, 3_000)
            .inject_window(FaultSite::Operator(0), FaultKind::Panic, 2, 10, 30);
        let config = TenantLaneConfig {
            tenants: population(4, 2),
            lanes: 2,
            table_size: 251,
            queue_hwm: 8,
            snapshot_every_ticks: 4,
            faults: Some(Arc::new(faults)),
            ..TenantLaneConfig::default()
        };
        let mut rt = TenantLaneRuntime::new(config).unwrap();
        for round in 0..40 {
            if round == 15 {
                rt.remove_tenant(3).unwrap();
            }
            if round == 28 {
                rt.add_tenant(3).unwrap();
            }
            rt.offer(wave(round, 96));
            rt.step();
        }
        let report = rt.finish();
        (
            report
                .tenants
                .iter()
                .map(|t| {
                    let mut ledger = t.ledger;
                    ledger.stolen = 0; // scheduling-dependent
                    (ledger, t.faults, t.respawns, t.opens, t.p99_delay_ticks)
                })
                .collect::<Vec<_>>(),
            report.events,
            report.rebuilds,
        )
    };
    assert_eq!(run(), run());
    let _ = std::panic::take_hook();
}
