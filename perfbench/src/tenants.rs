//! The tenant workloads: `TenantLaneRuntime` trials driven tick by
//! tick, each audited.
//!
//! The storm is the measured workload. The same code also runs a
//! short, well-behaved pass of a lanes workload's chain and mix as two
//! tenants, so the tenant-path layers have numbers on every workload.

use std::sync::Arc;
use std::time::Instant;

use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
use rbs_netfx::pktgen::PacketGen;
use rbs_netfx::{FiveTuple, FlowDistribution, PipelineSpec, TrafficConfig};
use rbs_runtime::{
    TenantChainFactory, TenantLaneConfig, TenantLaneRuntime, TenantReport, TenantSpec,
};

use crate::alloc;
use crate::chain;

/// Storm population and load.
pub const TENANTS: usize = 64;
const WAVE_PER_TENANT: usize = 24;
const FLOOD_EXTRA: usize = 256;
pub const FLOWS: usize = 4096;
const PAYLOAD: usize = 64;
const CHAOS_PPM: u32 = 400;
const TABLE_SIZE: usize = 251;

/// The tenant that floods its admission contract.
pub const FLOODER: usize = 1;
/// The tenant whose chain panics on every batch.
pub const LOOPER: usize = 2;

/// Admission contracts, packets per tick and burst.
const BASE_RATE: u64 = 400;
const BASE_BURST: u64 = 800;
const FLOOD_RATE: u64 = 25;
const FLOOD_BURST: u64 = 50;

/// The SLA every non-aggressor tenant must keep, in ppm of its offered
/// packets delivered.
const VICTIM_FLOOR_PPM: u64 = 990_000;

/// A tenant run's shape.
pub struct Shape {
    tenants: usize,
    /// Zipf-like steering weights (8, 5, 3, 2, 1, ...) or all equal.
    zipf_weights: bool,
    /// Flood + fault loop + 400 ppm chaos + churn of the last tenant.
    storm: bool,
    chain: Option<TenantChainFactory>,
    pub traffic: TrafficConfig,
    /// Packets offered per tick, in two half-waves.
    wave: usize,
    warmup_ticks: u64,
    ticks: u64,
}

/// 64 Zipf-weighted tenants; tenant 1 floods, tenant 2 fault-loops,
/// background chaos at 400 ppm, snapshots every 4 ticks, the last tenant
/// leaves at 1/3 and returns at 2/3 of the measured ticks.
pub fn storm(seed: u64) -> Shape {
    Shape {
        tenants: TENANTS,
        zipf_weights: true,
        storm: true,
        chain: None,
        traffic: chain::traffic(FLOWS, FlowDistribution::Uniform, PAYLOAD, seed),
        wave: WAVE_PER_TENANT * TENANTS,
        warmup_ticks: 24,
        ticks: 600,
    }
}

/// Two equal, well-behaved tenants running `spec` on `traffic`.
pub fn pass(spec: PipelineSpec, traffic: TrafficConfig) -> Shape {
    Shape {
        tenants: 2,
        zipf_weights: false,
        storm: false,
        chain: Some(Arc::new(move |_, _| spec.clone())),
        traffic,
        wave: 512,
        warmup_ticks: 8,
        ticks: 200,
    }
}

/// What one audited trial measured.
pub struct TenantTrial {
    pub traced: bool,
    pub setup_s: f64,
    /// Sum of the measured ticks' `offer` + `step` time.
    pub window_s: f64,
    /// Packets processed or shed by policy during the measured ticks.
    pub completed: u64,
    /// Packets offered during the measured ticks.
    pub offered: u64,
    pub tick_ns: Vec<f64>,
    /// Per offered batch: its `offer` call's start to the end of the
    /// tick's `step`, when the batch has run.
    pub batch_ns: Vec<f64>,
    pub step_ns: Vec<f64>,
    pub offer_ns: f64,
    pub steering_lookups: u64,
    pub allocs: u64,
    pub report: TenantReport,
    pub victim_min_ppm: f64,
    /// Lost or shed packets per million offered, not counting sheds of
    /// the two aggressors (whole trial).
    pub fail_ppm: f64,
}

impl TenantTrial {
    pub fn mpps(&self) -> f64 {
        self.completed as f64 / self.window_s / 1e6
    }
}

/// Steering weight of storm tenant `i`: 8, 5, 3, 2, then 1 — a few heavy
/// tenants and a long light tail.
pub fn zipf_weight(i: usize) -> u32 {
    [8, 5, 3, 2].get(i).copied().unwrap_or(1)
}

fn population(shape: &Shape) -> Vec<TenantSpec> {
    (0..shape.tenants)
        .map(|i| {
            let weight = if shape.zipf_weights {
                zipf_weight(i)
            } else {
                1
            };
            let aggressor = shape.storm && (i == FLOODER || i == LOOPER);
            let spec = TenantSpec::new(format!("tenant-{i}"))
                .weight(weight)
                .priority(if aggressor { 1 } else { 2 });
            if !shape.storm {
                spec.rate(u64::from(u32::MAX), u64::from(u32::MAX))
            } else if i == FLOODER {
                spec.rate(FLOOD_RATE, FLOOD_BURST)
            } else {
                spec.rate(BASE_RATE, BASE_BURST)
            }
        })
        .collect()
}

fn config(shape: &Shape, seed: u64) -> TenantLaneConfig {
    let faults = shape.storm.then(|| {
        Arc::new(
            FaultPlan::new(seed)
                .inject(FaultSite::Operator(0), FaultKind::Panic, CHAOS_PPM)
                .inject_window(
                    FaultSite::Operator(0),
                    FaultKind::Panic,
                    LOOPER as u64,
                    0,
                    u64::MAX,
                ),
        )
    });
    TenantLaneConfig {
        tenants: population(shape),
        lanes: crate::lanes::LANES,
        table_size: TABLE_SIZE,
        queue_hwm: 4 * shape.tenants,
        snapshot_every_ticks: 4,
        snapshot_full_every: 4,
        chain: shape.chain.clone(),
        faults,
        ..TenantLaneConfig::default()
    }
}

/// Sums over every tenant's live ledger: (offered, processed + shed).
fn totals(rt: &TenantLaneRuntime, tenants: usize) -> (u64, u64) {
    (0..tenants).fold((0, 0), |(offered, done), i| {
        let l = rt.ledger(i);
        (offered + l.offered, done + l.processed + l.shed())
    })
}

/// Runs one trial: `new` and warm-up ticks (set-up), then the measured
/// ticks, each pre-generated outside its timed `offer` + `step` span.
pub fn run_trial(shape: &Shape, seed: u64, traced: bool) -> Result<TenantTrial, String> {
    let t0 = Instant::now();
    let mut rt = TenantLaneRuntime::new(config(shape, seed)).map_err(|e| format!("{e:?}"))?;
    let mut setup = t0.elapsed();
    let mut gen = PacketGen::new(shape.traffic.clone());
    let mut flood = shape.storm.then(|| {
        let table = rt.table();
        PacketGen::subset(shape.traffic.clone(), 0x0F_100D, |t: &FiveTuple| {
            table.lookup(t.stable_hash()) == FLOODER
        })
    });
    let mut handed_in = 0u64;
    // One tick: generate (untimed), then time `offer` of each batch and
    // the `step` that runs them. Returns each offer's start, the end of
    // the offers and the end of the step, from the tick's start.
    let mut tick = |rt: &mut TenantLaneRuntime, counted: bool| {
        let mut batches = [
            Some(gen.next_batch(shape.wave / 2)),
            Some(gen.next_batch(shape.wave - shape.wave / 2)),
            flood.as_mut().map(|f| f.next_batch(FLOOD_EXTRA)),
        ];
        handed_in += batches
            .iter()
            .flatten()
            .map(|b| b.len() as u64)
            .sum::<u64>();
        let mut starts = [None; 3];
        let ((offer_end, end), allocs) = alloc::counted(counted, || {
            let start = Instant::now();
            for (slot, batch) in starts.iter_mut().zip(batches.iter_mut()) {
                if let Some(batch) = batch.take() {
                    *slot = Some(start.elapsed());
                    rt.offer(batch);
                }
            }
            let offer_end = start.elapsed();
            rt.step();
            (offer_end, start.elapsed())
        });
        (starts, offer_end, end, allocs)
    };

    for _ in 0..shape.warmup_ticks {
        setup += tick(&mut rt, false).2;
    }

    let churn = shape.tenants - 1;
    let (leave_at, return_at) = (shape.ticks / 3, 2 * shape.ticks / 3);
    let (mut remap_out, mut remap_back) = (0, 0);
    let (offered0, done0) = totals(&rt, shape.tenants);
    let lookups0 = rt.steering_lookups();
    let mut window_s = 0.0;
    let mut offer_ns = 0.0;
    let mut allocs = 0;
    let mut tick_ns = Vec::with_capacity(shape.ticks as usize);
    let mut step_ns = Vec::with_capacity(shape.ticks as usize);
    let mut batch_ns = Vec::with_capacity(3 * shape.ticks as usize);
    for t in 0..shape.ticks {
        if shape.storm && t == leave_at {
            remap_out = rt
                .remove_tenant(churn)
                .map_err(|e| format!("churn out: {e:?}"))?;
        }
        if shape.storm && t == return_at {
            remap_back = rt
                .add_tenant(churn)
                .map_err(|e| format!("churn in: {e:?}"))?;
        }
        let (starts, offer_end, end, tick_allocs) = tick(&mut rt, traced);
        let end_ns = end.as_nanos() as f64;
        window_s += end.as_secs_f64();
        tick_ns.push(end_ns);
        step_ns.push(end_ns - offer_end.as_nanos() as f64);
        offer_ns += offer_end.as_nanos() as f64;
        batch_ns.extend(
            starts
                .iter()
                .flatten()
                .map(|s| end_ns - s.as_nanos() as f64),
        );
        allocs += tick_allocs;
    }
    let (offered1, done1) = totals(&rt, shape.tenants);
    let steering_lookups = rt.steering_lookups() - lookups0;
    let report = rt.finish();
    audit(shape, &report, handed_in, remap_out, remap_back)?;

    let is_aggressor = |i: usize| shape.storm && (i == FLOODER || i == LOOPER);
    let victim_min_ppm = report
        .tenants
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_aggressor(*i))
        .map(|(_, t)| t.ledger.goodput_ppm() as f64)
        .fold(f64::INFINITY, f64::min);
    let failed: u64 = report
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| t.ledger.lost + if is_aggressor(i) { 0 } else { t.ledger.shed() })
        .sum();
    Ok(TenantTrial {
        traced,
        setup_s: setup.as_secs_f64(),
        window_s,
        completed: done1 - done0,
        offered: offered1 - offered0,
        tick_ns,
        batch_ns,
        step_ns,
        offer_ns,
        steering_lookups,
        allocs,
        victim_min_ppm,
        fail_ppm: failed as f64 * 1e6 / report.offered().max(1) as f64,
        report,
    })
}

/// The tenant correctness contract: exact per-tenant ledgers with steal
/// credits inside processed work, every packet the benchmark handed in
/// accounted, zero priority inversions, and the executor and origin
/// views agreeing on thefts. The storm adds the SLA (every
/// non-aggressor at ≥ 990,000 ppm goodput) and checks that each threat
/// it stages happened: the flood hit its bucket, the loop opened its
/// breaker, churn remapped and restored the same entries. The
/// well-behaved pass must lose and shed nothing.
fn audit(
    shape: &Shape,
    r: &TenantReport,
    handed_in: u64,
    remap_out: usize,
    remap_back: usize,
) -> Result<(), String> {
    let fail = |why: String| Err(format!("tenant audit: {why}"));
    if r.offered() != handed_in {
        return fail(format!(
            "runtime saw {} of {handed_in} packets",
            r.offered()
        ));
    }
    if r.unaccounted_packets() != 0 {
        return fail(format!("{} packets unaccounted", r.unaccounted_packets()));
    }
    for t in &r.tenants {
        if t.ledger.unaccounted() != 0 || t.ledger.stolen > t.ledger.processed {
            return fail(format!(
                "{} ledger does not balance: {:?}",
                t.name, t.ledger
            ));
        }
    }
    if r.priority_inversions() != 0 {
        return fail(format!("{} priority inversions", r.priority_inversions()));
    }
    let by_origin: u64 = r
        .occupancy
        .iter()
        .flat_map(|l| l.stolen_from.iter().map(|&(_, n)| n))
        .sum();
    if r.steals() != by_origin {
        return fail(format!("{} steals, {by_origin} by origin", r.steals()));
    }
    if !shape.storm {
        let lost_or_shed: u64 = r
            .tenants
            .iter()
            .map(|t| t.ledger.lost + t.ledger.shed())
            .sum();
        return if lost_or_shed == 0 {
            Ok(())
        } else {
            fail(format!(
                "{lost_or_shed} packets lost or shed by well-behaved tenants"
            ))
        };
    }
    for (i, t) in r.tenants.iter().enumerate() {
        if i != FLOODER && i != LOOPER && t.ledger.goodput_ppm() < VICTIM_FLOOR_PPM {
            return fail(format!(
                "{} goodput {} ppm after {} throttles and {} opens: {:?}",
                t.name,
                t.ledger.goodput_ppm(),
                t.throttles,
                t.opens,
                t.ledger
            ));
        }
    }
    if r.tenants[FLOODER].ledger.shed_admission == 0 {
        return fail("the flood never hit its admission bucket".into());
    }
    if r.tenants[LOOPER].opens == 0 {
        return fail("the fault loop never opened its breaker".into());
    }
    if r.rebuilds.len() != 2 || remap_out == 0 || remap_out != remap_back {
        return fail(format!(
            "churn: {} rebuilds, {remap_out} entries out, {remap_back} back",
            r.rebuilds.len()
        ));
    }
    Ok(())
}
