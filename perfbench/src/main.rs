//! The repository benchmark: end-to-end packet metrics of the lane and
//! tenant-lane engines, and a traced run that times each layer.
//!
//! ```text
//! perfbench --workload <lanes-bare|lanes-skew-stateful|tenants-storm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats audited trials (one engine start to join each, on a
//! per-trial seed drawn from `--seed`) for `--seconds`, after one
//! discarded warm-up trial, and reports medians. The last line of
//! standard output is the result: `correct`, `attempted` (trials),
//! `failed` (trials whose audit failed) and `metrics`. The line before it
//! is the run record. See `perfbench/README.md`.

mod alloc;
mod chain;
mod host;
mod lanes;
mod layers;
mod report;
mod tenants;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rbs_core::histogram::LogHistogram;
use rbs_netfx::{FiveTuple, PacketGen};
use rbs_runtime::{default_tenant_chain, TenantSpec};

use crate::lanes::{LaneTrial, LaneWorkload};
use crate::layers::Layers;
use crate::report::{histogram_quantile, median, per, quantile, ratio, JsonObject, Metrics};
use crate::tenants::TenantTrial;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Trials a run measures at least, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <lanes-bare|lanes-skew-stateful|tenants-storm> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy)]
enum Workload {
    Lanes(&'static LaneWorkload),
    Storm,
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "lanes-bare" => Workload::Lanes(&lanes::BARE),
        "lanes-skew-stateful" => Workload::Lanes(&lanes::SKEW_STATEFUL),
        "tenants-storm" => Workload::Storm,
        other => return Err(format!("unknown workload {other}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run stopped by a failed audit.
struct Failure {
    attempted: u64,
    why: String,
}

/// Runs one discarded warm-up trial, then trials for `seconds` (at
/// least [`MIN_TRIALS`]). When tracing, every other trial counts
/// allocations, so traced and untraced trials interleave.
fn trials<T>(
    args: &Args,
    mut run: impl FnMut(u64, bool) -> Result<T, String>,
) -> Result<Vec<T>, Failure> {
    let fail = |attempted: usize, why| Failure {
        attempted: attempted as u64,
        why,
    };
    run(chain::trial_seed(args.seed, 0), false).map_err(|why| fail(1, why))?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut out = Vec::new();
    while out.len() < MIN_TRIALS || Instant::now() < deadline {
        let traced = args.trace && out.len() % 2 == 1;
        let seed = chain::trial_seed(args.seed, out.len() as u64 + 1);
        out.push(run(seed, traced).map_err(|why| fail(out.len() + 2, why))?);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_domain_panics();
    let mut record = host::record(&args.name, args.seed, lanes::LANES, args.trace);
    let outcome = match args.workload {
        Workload::Lanes(w) => run_lanes(&args, w, &mut record),
        Workload::Storm => run_storm(&args, &mut record),
    };
    println!("{}", record.render());
    match outcome {
        Ok((attempted, metrics)) => {
            let bad = metrics.non_finite();
            if bad.is_empty() {
                println!("{}", report::result_line(true, attempted, 0, &metrics));
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: non-finite metrics {bad:?}");
                println!(
                    "{}",
                    report::result_line(false, attempted, 0, &Metrics::default())
                );
                ExitCode::FAILURE
            }
        }
        Err(f) => {
            eprintln!("perfbench: {}", f.why);
            println!(
                "{}",
                report::result_line(false, f.attempted, 1, &Metrics::default())
            );
            ExitCode::FAILURE
        }
    }
}

/// Domain faults are the tenant storm's business: the chaos and the
/// fault loop panic inside lane threads, where the domain boundary
/// catches them. Keep the default report for every other panic.
fn quiet_domain_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let name = std::thread::current().name().unwrap_or("").to_string();
        if !name.starts_with("tenant-lane-") && !name.starts_with("rbs-lane-") {
            default(info);
        }
    }));
}

fn cycles_to_us(cycles: f64) -> f64 {
    cycles / rbs_core::cycles::cycles_per_ns() / 1e3
}

fn run_lanes(
    args: &Args,
    w: &'static LaneWorkload,
    record: &mut JsonObject,
) -> Result<(u64, Metrics), Failure> {
    let trials = trials(args, |seed, traced| lanes::run_trial(w, seed, traced))?;
    let attempted = trials.len() as u64 + 1;
    let each = |f: &dyn Fn(&LaneTrial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let mpps = each(&|t| t.mpps());
    let stolen = each(&|t| t.stolen_batches as f64);
    let misses = each(&|t| t.pool_misses as f64);
    let share = each(&|t| t.share_max);
    record
        .list("trial_mpps", &mpps)
        .list("trial_stolen_batches", &stolen)
        .list("trial_pool_misses", &misses)
        .list("trial_hot_lane_share", &share)
        .num("stolen_batches", median(&stolen))
        .num("pool_misses", median(&misses))
        .num("hot_lane_share", median(&share));

    let mut m = Metrics::default();
    if !args.trace {
        let mut hist = LogHistogram::new(lanes::HIST_PRECISION);
        for t in &trials {
            hist.merge(&t.hist);
        }
        m.push("mpps", median(&mpps), "Mpps");
        m.push(
            "batch_us_p50",
            cycles_to_us(histogram_quantile(&hist, 0.5)),
            "us",
        );
        m.push(
            "batch_us_p90",
            cycles_to_us(histogram_quantile(&hist, 0.9)),
            "us",
        );
        m.push("setup_s", median(&each(&|t| t.setup_s)), "s");
        m.push("rss_mb", host::peak_rss_mb(), "MB");
        return Ok((attempted, m));
    }

    let (traced, untraced): (Vec<&LaneTrial>, Vec<&LaneTrial>) =
        trials.iter().partition(|t| t.traced);
    let steal_ratio = median(&each(&|t| ratio(t.stolen_batches, t.executed_batches)));
    let engine = Engine {
        steal_ratio,
        deque_hwm: median(&each(&|t| t.deque_hwm as f64)),
        share_max: median(&share),
        busy_ratio: median(&each(&|t| t.busy_ratio)),
        pool_miss_ratio: median(&each(&|t| ratio(t.pool_misses, t.pool_taken))),
        alloc_per_pkt: ratio(
            traced.iter().map(|t| t.allocs).sum(),
            traced.iter().map(|t| t.packets).sum(),
        ),
        mpps_untraced: median(&untraced.iter().map(|t| t.mpps()).collect::<Vec<_>>()),
        mpps_traced: median(&traced.iter().map(|t| t.mpps()).collect::<Vec<_>>()),
    };
    let traffic = w.traffic(chain::trial_seed(args.seed, 0));
    let pass = tenants::run_trial(
        &tenants::pass(chain::spec(w.stages), traffic.clone()),
        args.seed,
        true,
    )
    .map_err(|why| Failure {
        attempted: attempted + 1,
        why,
    })?;
    let lane_slice = || PacketGen::rss_slice(traffic.clone(), 0, lanes::LANES);
    let layers = layers::measure(&layers::Inputs {
        traffic: traffic.clone(),
        stream: &lane_slice,
        batch_size: w.batch_size,
        path: w.stages,
        chain: chain::spec(w.stages),
    });
    let path_ns = layers.lanes_path_ns(steal_ratio);
    let e2e_ns = lanes::LANES as f64 * 1e3 / engine.mpps_untraced;
    emit_layers(&mut m, &engine, &[pass], &layers, path_ns / e2e_ns);
    Ok((attempted + 1, m))
}

fn run_storm(args: &Args, record: &mut JsonObject) -> Result<(u64, Metrics), Failure> {
    let trials = trials(args, |seed, traced| {
        tenants::run_trial(&tenants::storm(seed), seed, traced)
    })?;
    let attempted = trials.len() as u64 + 1;
    let each = |f: &dyn Fn(&TenantTrial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let mpps = each(&|t| t.mpps());
    let fail_ppm = each(&|t| t.fail_ppm);
    let steals = each(&|t| t.report.steals() as f64);
    record
        .list("trial_mpps", &mpps)
        .list("trial_fail_ppm", &fail_ppm)
        .list("trial_steals", &steals);

    let mut m = Metrics::default();
    if !args.trace {
        let pooled = |f: &dyn Fn(&TenantTrial) -> &Vec<f64>| {
            trials
                .iter()
                .flat_map(|t| f(t).iter().copied())
                .collect::<Vec<f64>>()
        };
        let ticks = pooled(&|t| &t.tick_ns);
        m.push("mpps", median(&mpps), "Mpps");
        m.push(
            "batch_us_p50",
            median(&pooled(&|t| &t.batch_ns)) / 1e3,
            "us",
        );
        m.push("tick_us_p50", median(&ticks) / 1e3, "us");
        m.push("tick_us_p90", quantile(&ticks, 0.9) / 1e3, "us");
        m.push(
            "victim_goodput_min_ppm",
            median(&each(&|t| t.victim_min_ppm)),
            "ppm",
        );
        m.push("fail_ppm", median(&fail_ppm), "ppm");
        m.push("setup_s", median(&each(&|t| t.setup_s)), "s");
        m.push("rss_mb", host::peak_rss_mb(), "MB");
        return Ok((attempted, m));
    }

    let (traced, untraced): (Vec<&TenantTrial>, Vec<&TenantTrial>) =
        trials.iter().partition(|t| t.traced);
    let lane_share = |t: &TenantTrial| {
        let per_lane: Vec<u64> = t
            .report
            .occupancy
            .iter()
            .map(|l| l.executed_packets)
            .collect();
        ratio(
            per_lane.iter().copied().max().unwrap_or(0),
            per_lane.iter().sum(),
        )
    };
    let executed =
        |t: &TenantTrial| -> u64 { t.report.occupancy.iter().map(|l| l.executed_batches).sum() };
    let engine = Engine {
        steal_ratio: median(&each(&|t| ratio(t.report.steals(), executed(t)))),
        deque_hwm: median(&each(&|t| {
            t.report.lane_depth_hwm.iter().copied().max().unwrap_or(0) as f64
        })),
        share_max: median(&each(&lane_share)),
        // Lane busy time is not observable on this engine without
        // instrumenting it; packets do not come from a pool here.
        busy_ratio: 0.0,
        pool_miss_ratio: 0.0,
        alloc_per_pkt: ratio(
            traced.iter().map(|t| t.allocs).sum(),
            traced.iter().map(|t| t.offered).sum(),
        ),
        mpps_untraced: median(&untraced.iter().map(|t| t.mpps()).collect::<Vec<_>>()),
        mpps_traced: median(&traced.iter().map(|t| t.mpps()).collect::<Vec<_>>()),
    };
    let processed: u64 = trials
        .iter()
        .flat_map(|t| t.report.tenants.iter().map(|o| o.ledger.processed))
        .sum();
    let batches: u64 = trials.iter().map(executed).sum();
    let batch_size = (processed / batches.max(1)).max(1) as usize;
    // The chain replays follow one light (weight-1) victim: its flows
    // and its chain, the typical tenant of the 64.
    let traffic = tenants::storm(chain::trial_seed(args.seed, 0)).traffic;
    let table = layers::tenant_table();
    let victim = || {
        PacketGen::subset(traffic.clone(), 0x7E4A47, |t: &FiveTuple| {
            table.lookup(t.stable_hash()) == TYPICAL_TENANT
        })
    };
    let layers = layers::measure(&layers::Inputs {
        traffic: traffic.clone(),
        stream: &victim,
        batch_size,
        path: &chain::TENANT,
        chain: default_tenant_chain(TYPICAL_TENANT, &TenantSpec::new("typical")),
    });
    let coverage = storm_path_ns(&trials, &layers, batch_size)
        / (lanes::LANES as f64 * 1e3 / engine.mpps_untraced);
    emit_layers(&mut m, &engine, &trials, &layers, coverage);
    Ok((attempted, m))
}

/// Self time per packet of the layers the storm crosses: the control
/// thread's `offer` (steering, admission, queueing), then, for the
/// packets that run, the tenant chain's stages and domain entry/exit,
/// plus snapshots amortized over the packets (at the typical tenant's
/// snapshot cost).
fn storm_path_ns(trials: &[TenantTrial], layers: &Layers, batch_size: usize) -> f64 {
    let offered: u64 = trials.iter().map(|t| t.offered).sum();
    let offer_ns: f64 = trials.iter().map(|t| t.offer_ns).sum();
    let (mut processed, mut total, mut snapshots) = (0u64, 0u64, 0u64);
    for t in trials {
        processed += t
            .report
            .tenants
            .iter()
            .map(|o| o.ledger.processed)
            .sum::<u64>();
        total += t.report.offered();
        snapshots += t
            .report
            .tenants
            .iter()
            .map(|o| o.snapshots_taken)
            .sum::<u64>();
    }
    let run_share = ratio(processed, total);
    per(offer_ns, offered)
        + run_share
            * (layers.chain_ns_per_pkt() + layers.execute_overhead_ns_per_batch / batch_size as f64)
        + per(layers.snapshot_us * 1e3 * snapshots as f64, total)
}

/// The first weight-1 victim of the storm.
const TYPICAL_TENANT: usize = 4;

/// Engine-level counters of the traced run.
struct Engine {
    steal_ratio: f64,
    deque_hwm: f64,
    share_max: f64,
    busy_ratio: f64,
    pool_miss_ratio: f64,
    alloc_per_pkt: f64,
    mpps_untraced: f64,
    mpps_traced: f64,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn emit_layers(
    m: &mut Metrics,
    engine: &Engine,
    tenant: &[TenantTrial],
    layers: &Layers,
    coverage: f64,
) {
    m.push("netfx.pktgen.ns_per_pkt", layers.pktgen_ns_per_pkt, "ns");
    m.push(
        "netfx.pool.recycle_ns_per_batch",
        layers.recycle_ns_per_batch,
        "ns",
    );
    m.push("netfx.pool.miss_ratio", engine.pool_miss_ratio, "ratio");
    m.push(
        "sfi.execute_overhead_ns_per_batch",
        layers.execute_overhead_ns_per_batch,
        "ns",
    );
    for c in &layers.crossings {
        m.push(format!("sfi.crossing_ns.{}", c.backend.name()), c.ns, "ns");
    }
    for c in &layers.crossings {
        m.push(
            format!("sfi.model_cycles.{}", c.backend.name()),
            c.model_cycles,
            "model-cyc",
        );
    }
    for s in &layers.stages {
        m.push(
            format!("netfx.stage.{}.ns_per_pkt", s.stage.key()),
            s.ns_per_pkt,
            "ns",
        );
        m.push(
            format!("netfx.stage.{}.pass_ratio", s.stage.key()),
            s.pass_ratio,
            "ratio",
        );
    }
    m.push("runtime.steal.ratio", engine.steal_ratio, "ratio");
    m.push("runtime.deque.steal_ns", layers.deque_steal_ns, "ns");
    m.push("runtime.deque.push_pop_ns", layers.deque_push_pop_ns, "ns");
    m.push("runtime.deque.hwm", engine.deque_hwm, "batches");
    m.push("runtime.lane.share_max", engine.share_max, "ratio");
    m.push("runtime.lane.busy_ratio", engine.busy_ratio, "ratio");
    m.push("alloc.per_pkt", engine.alloc_per_pkt, "allocs/pkt");
    m.push("maglev.lookup_ns", layers.maglev_lookup_ns, "ns");
    m.push("netfx.ratelimit.take_ns", layers.ratelimit_take_ns, "ns");

    let each = |f: &dyn Fn(&TenantTrial) -> f64| tenant.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: &dyn Fn(&rbs_runtime::TenantOutcome) -> u64| {
        each(&|t| t.report.tenants.iter().map(f).sum::<u64>() as f64)
    };
    let offered: u64 = tenant.iter().map(|t| t.offered).sum();
    let refused = each(&|t| {
        let shed: u64 = t
            .report
            .tenants
            .iter()
            .map(|o| o.ledger.shed_admission + o.ledger.shed_open)
            .sum();
        1.0 - ratio(shed, t.report.offered())
    });
    let steps: Vec<f64> = tenant
        .iter()
        .flat_map(|t| t.step_ns.iter().copied())
        .collect();
    m.push(
        "runtime.tenant.steering_lookups_per_pkt",
        ratio(tenant.iter().map(|t| t.steering_lookups).sum(), offered),
        "lookups/pkt",
    );
    m.push("runtime.tenant.admit_ratio", median(&refused), "ratio");
    m.push(
        "runtime.tenant.offer_ns_per_pkt",
        per(tenant.iter().map(|t| t.offer_ns).sum(), offered),
        "ns",
    );
    m.push("runtime.tenant.step_us_p50", median(&steps) / 1e3, "us");
    m.push(
        "runtime.tenant.steals",
        median(&each(&|t| t.report.steals() as f64)),
        "count",
    );
    m.push(
        "runtime.tenant.hwm_sheds",
        median(&each(&|t| t.report.hwm_sheds as f64)),
        "count",
    );
    m.push("checkpoint.snapshot_us", layers.snapshot_us, "us");
    m.push("checkpoint.snapshot_bytes", layers.snapshot_bytes, "bytes");
    m.push("checkpoint.restore_us", layers.restore_us, "us");
    m.push(
        "runtime.tenant.snapshots",
        median(&sum(&|o| o.snapshots_taken)),
        "count",
    );
    m.push(
        "runtime.tenant.warm_restores",
        median(&sum(&|o| o.warm_restores)),
        "count",
    );
    m.push(
        "runtime.tenant.breaker_opens",
        median(&sum(&|o| o.opens)),
        "count",
    );
    m.push("layers.coverage", coverage, "ratio");
    m.push("trace.mpps_untraced", engine.mpps_untraced, "Mpps");
    m.push("trace.mpps_traced", engine.mpps_traced, "Mpps");
    m.push(
        "trace.overhead",
        1.0 - engine.mpps_traced / engine.mpps_untraced,
        "ratio",
    );
}
