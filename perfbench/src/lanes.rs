//! The lanes workloads: `LaneRuntime` trials, each audited.

use std::time::{Duration, Instant};

use rbs_core::histogram::LogHistogram;
use rbs_netfx::{FlowDistribution, TrafficConfig};
use rbs_runtime::{LaneConfig, LaneReport, LaneRuntime};

use crate::alloc;
use crate::chain::{self, Stage};

/// Lane threads; the host this benchmark was sized on has two cores.
pub const LANES: usize = 2;

/// Sub-buckets of the lanes' per-batch cycle histograms.
pub const HIST_PRECISION: u32 = 32;

/// One lanes workload.
pub struct LaneWorkload {
    pub stages: &'static [Stage],
    flows: usize,
    distribution: FlowDistribution,
    payload_len: usize,
    pub batch_size: usize,
    measured_batches: u64,
    warmup_batches: u64,
}

/// Uniform mix over 4096 flows, 18-byte UDP payloads (the smallest
/// frame), stateless chain.
pub const BARE: LaneWorkload = LaneWorkload {
    stages: &chain::BARE,
    flows: 4096,
    distribution: FlowDistribution::Uniform,
    payload_len: 18,
    batch_size: 64,
    measured_batches: 150_000,
    warmup_batches: 10_000,
};

/// Zipf(1.2) mix over 65,536 flows, 256-byte payloads, firewall and
/// flow tracker.
pub const SKEW_STATEFUL: LaneWorkload = LaneWorkload {
    stages: &chain::STATEFUL,
    flows: 65_536,
    distribution: FlowDistribution::Zipf(1.2),
    payload_len: 256,
    batch_size: 64,
    measured_batches: 40_000,
    warmup_batches: 4_000,
};

impl LaneWorkload {
    pub fn traffic(&self, seed: u64) -> TrafficConfig {
        chain::traffic(self.flows, self.distribution, self.payload_len, seed)
    }

    fn measured_packets(&self) -> u64 {
        self.measured_batches * self.batch_size as u64
    }
}

/// What one audited trial measured.
pub struct LaneTrial {
    pub traced: bool,
    pub setup_s: f64,
    pub window_s: f64,
    /// Packets completed in the measured window.
    pub packets: u64,
    /// Per-batch `run_batch` cycles (inside the domain), all lanes.
    pub hist: LogHistogram,
    pub executed_batches: u64,
    pub stolen_batches: u64,
    pub pool_taken: u64,
    pub pool_misses: u64,
    /// Largest per-lane share of the mix's probability mass.
    pub share_max: f64,
    pub deque_hwm: usize,
    /// Cycles spent in `run_batch` over the window, per lane.
    pub busy_ratio: f64,
    /// Allocations during the window (traced trials only).
    pub allocs: u64,
}

impl LaneTrial {
    pub fn mpps(&self) -> f64 {
        self.packets as f64 / self.window_s / 1e6
    }
}

/// Runs one trial on the seed's traffic: start → warm-up → measured
/// window → join → audit.
pub fn run_trial(w: &LaneWorkload, seed: u64, traced: bool) -> Result<LaneTrial, String> {
    let config = LaneConfig {
        lanes: LANES,
        traffic: w.traffic(seed),
        total_batches: w.measured_batches,
        batch_size: w.batch_size,
        warmup_batches: Some(w.warmup_batches),
        ..LaneConfig::default()
    };
    let t0 = Instant::now();
    let rt = LaneRuntime::start(chain::spec(w.stages), config);
    rt.wait_warmed();
    let setup = t0.elapsed();
    let (window, allocs) = alloc::counted(traced, || {
        let start = Instant::now();
        rt.release_warm();
        rt.wait_done();
        start.elapsed()
    });
    rt.release_exit();
    let report = rt.join();
    audit(w, &report)?;
    Ok(summarize(w, &report, traced, setup, window, allocs))
}

/// The lanes correctness contract: the full quota was offered, every
/// packet is accounted exactly once, no lane died, and every buffer came
/// back to a pool except those a policy stage dropped (a dropped packet
/// frees its buffer instead of recycling it).
fn audit(w: &LaneWorkload, r: &LaneReport) -> Result<(), String> {
    let quota = (w.measured_batches + w.warmup_batches) * w.batch_size as u64;
    let drops: u64 = r.ledgers.iter().map(|l| l.drops).sum();
    let checks = [
        (
            r.offered() == quota,
            format!("offered {} of a {quota}-packet quota", r.offered()),
        ),
        (
            r.unaccounted_packets() == 0,
            format!("{} packets unaccounted", r.unaccounted_packets()),
        ),
        (
            r.lost() == 0 && r.shed() == 0,
            format!(
                "lost {} and shed {} on a fault-free run",
                r.lost(),
                r.shed()
            ),
        ),
        (r.lanes.iter().all(|l| !l.dead), "a lane died".to_string()),
        (
            r.outstanding_buffers() == i128::from(drops),
            format!(
                "{} buffers outstanding, {drops} dropped by policy",
                r.outstanding_buffers()
            ),
        ),
        (
            r.packets_out() + drops == r.processed(),
            format!(
                "out {} + drops {drops} != processed {}",
                r.packets_out(),
                r.processed()
            ),
        ),
    ];
    match checks.into_iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(format!("lanes audit: {why}")),
        None => Ok(()),
    }
}

fn summarize(
    w: &LaneWorkload,
    r: &LaneReport,
    traced: bool,
    setup: Duration,
    window: Duration,
    allocs: u64,
) -> LaneTrial {
    let mut hist = LogHistogram::new(HIST_PRECISION);
    for lane in &r.lanes {
        hist.merge(&lane.cycle_hist);
    }
    let executed_batches: u64 = r.lanes.iter().map(|l| l.executed_batches).sum();
    let executed_cycles: u64 = r.lanes.iter().map(|l| l.executed_cycles).sum();
    let cycles_per_batch = executed_cycles as f64 / executed_batches.max(1) as f64;
    let window_cycles = window.as_nanos() as f64 * rbs_core::cycles::cycles_per_ns();
    LaneTrial {
        traced,
        setup_s: setup.as_secs_f64(),
        window_s: window.as_secs_f64(),
        packets: w.measured_packets(),
        hist,
        executed_batches,
        stolen_batches: r.lanes.iter().map(|l| l.stolen_in_batches).sum(),
        pool_taken: r.lanes.iter().map(|l| l.pool.taken).sum(),
        pool_misses: r.lanes.iter().map(|l| l.pool.misses).sum(),
        share_max: r.lanes.iter().map(|l| l.share).fold(0.0, f64::max),
        deque_hwm: r.lanes.iter().map(|l| l.deque_hwm).max().unwrap_or(0),
        busy_ratio: cycles_per_batch * w.measured_batches as f64 / (window_cycles * LANES as f64),
        allocs,
    }
}
