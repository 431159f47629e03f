//! Per-layer spans, recorded from the benchmark's own code: each layer's
//! public functions are called on the workload's own traffic and timed
//! call by call, single-threaded on the calling thread. Nothing inside the
//! program is instrumented.

use std::hint::black_box;
use std::time::Instant;

use rbs_maglev::{Backend, MaglevTable};
use rbs_netfx::{PacketBatch, PacketGen, PacketPool, PipelineSpec, TickBucket, TrafficConfig};
use rbs_runtime::{LaneDeque, Steal};
use rbs_sfi::{BackendKind, DomainManager};

use crate::chain::{Stage, CATALOGUE};
use crate::report::median;
use crate::tenants;

/// Rounds each span is measured in; a layer reports its median round.
const ROUNDS: usize = 5;
/// Batches per round and per chunk timed as one span (a lane builds
/// four batches per turn).
const BATCHES: usize = 256;
const CHUNK: usize = 4;
/// Calls per round for the per-call spans.
const CALLS: usize = 50_000;
/// Calls per block of the domain entry/exit span.
const BLOCK: usize = 500;

/// What the workload feeds its layers.
pub struct Inputs<'a> {
    /// The whole mix, as steering and admission see it.
    pub traffic: TrafficConfig,
    /// The packet stream one chain instance sees: a lane's RSS slice, or
    /// one tenant's flows.
    pub stream: &'a dyn Fn() -> PacketGen,
    pub batch_size: usize,
    /// The stages on the workload's path, in chain order.
    pub path: &'a [Stage],
    /// The chain the workload's engine runs.
    pub chain: PipelineSpec,
}

pub struct StageSpan {
    pub stage: Stage,
    pub on_path: bool,
    pub ns_per_pkt: f64,
    pub pass_ratio: f64,
}

pub struct Crossing {
    pub backend: BackendKind,
    /// Wall time of one `Domain::execute` of a null closure (entry and
    /// exit).
    pub ns: f64,
    /// Cycles the backend's cost model charges for that call.
    pub model_cycles: f64,
}

pub struct Layers {
    pub pktgen_ns_per_pkt: f64,
    pub recycle_ns_per_batch: f64,
    pub execute_overhead_ns_per_batch: f64,
    pub stages: Vec<StageSpan>,
    pub crossings: Vec<Crossing>,
    pub deque_push_pop_ns: f64,
    pub deque_steal_ns: f64,
    pub maglev_lookup_ns: f64,
    pub ratelimit_take_ns: f64,
    pub snapshot_us: f64,
    pub snapshot_bytes: f64,
    pub restore_us: f64,
    batch_size: f64,
}

impl Layers {
    /// Self time per packet of the layers a lanes workload crosses for
    /// every packet: generation, the chain's stages, domain entry/exit,
    /// recycle, and the deque (a push and a pop per batch, plus a steal
    /// for the stolen share).
    pub fn lanes_path_ns(&self, steal_ratio: f64) -> f64 {
        let per_batch = self.recycle_ns_per_batch
            + self.execute_overhead_ns_per_batch
            + self.deque_push_pop_ns
            + steal_ratio * self.deque_steal_ns;
        self.pktgen_ns_per_pkt + self.chain_ns_per_pkt() + per_batch / self.batch_size
    }

    /// Sum over the path's stages of each stage's time per packet it
    /// receives, weighted by the share of packets that reach it.
    pub fn chain_ns_per_pkt(&self) -> f64 {
        let mut reach = 1.0;
        let mut ns = 0.0;
        for s in self.stages.iter().filter(|s| s.on_path) {
            ns += reach * s.ns_per_pkt;
            reach *= s.pass_ratio;
        }
        ns
    }
}

/// Measures every layer on `inp`.
pub fn measure(inp: &Inputs<'_>) -> Layers {
    let (pktgen_ns_per_pkt, recycle_ns_per_batch) = rounds2(|| generate_and_recycle(inp));
    let stages = CATALOGUE
        .iter()
        .map(|&default| {
            let on_path = inp.path.iter().find(|s| s.key() == default.key());
            let stage = on_path.copied().unwrap_or(default);
            let (ns_per_pkt, pass_ratio) = stage_span(inp, stage);
            StageSpan {
                stage,
                on_path: on_path.is_some(),
                ns_per_pkt,
                pass_ratio,
            }
        })
        .collect();
    let (execute_overhead_ns_per_batch, (snapshot_us, snapshot_bytes, restore_us)) =
        domain_and_checkpoint(inp);
    let (deque_push_pop_ns, deque_steal_ns) = rounds2(deque_spans);
    Layers {
        pktgen_ns_per_pkt,
        recycle_ns_per_batch,
        execute_overhead_ns_per_batch,
        stages,
        crossings: BackendKind::ALL.iter().map(|&k| crossing(k)).collect(),
        deque_push_pop_ns,
        deque_steal_ns,
        maglev_lookup_ns: maglev_span(inp),
        ratelimit_take_ns: ratelimit_span(inp),
        snapshot_us,
        snapshot_bytes,
        restore_us,
        batch_size: inp.batch_size as f64,
    }
}

/// The median over [`ROUNDS`] of each half of `f`'s result.
fn rounds2(mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = (0..ROUNDS).map(|_| f()).unzip();
    (median(&a), median(&b))
}

/// A pool sized like a lane's.
fn lane_pool(batch_size: usize) -> PacketPool {
    let buffers = (CHUNK + 2) * batch_size;
    let mut pool = PacketPool::new(2048, buffers);
    pool.prewarm(buffers);
    pool.prewarm_shells(CHUNK + 4, batch_size);
    pool
}

/// `netfx.pktgen` (pool take + packet build) per packet and
/// `netfx.pool` recycle per batch.
fn generate_and_recycle(inp: &Inputs<'_>) -> (f64, f64) {
    let mut gen = (inp.stream)();
    let mut pool = lane_pool(inp.batch_size);
    let mut held: Vec<PacketBatch> = Vec::with_capacity(CHUNK);
    let (mut gen_ns, mut recycle_ns) = (0.0, 0.0);
    for _ in 0..BATCHES / CHUNK {
        let t = Instant::now();
        for _ in 0..CHUNK {
            held.push(gen.next_batch_from_pool(inp.batch_size, &mut pool));
        }
        gen_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for b in held.drain(..) {
            pool.recycle_batch(b);
        }
        recycle_ns += t.elapsed().as_nanos() as f64;
    }
    (
        gen_ns / (BATCHES * inp.batch_size) as f64,
        recycle_ns / BATCHES as f64,
    )
}

/// One stage alone: ns per packet in, and packets out per packet in.
fn stage_span(inp: &Inputs<'_>, stage: Stage) -> (f64, f64) {
    let mut op = stage.build();
    let mut gen = (inp.stream)();
    let mut pool = lane_pool(inp.batch_size);
    let (mut pkts_in, mut pkts_out) = (0u64, 0u64);
    let mut per_round = Vec::with_capacity(ROUNDS);
    let mut held: Vec<PacketBatch> = Vec::with_capacity(CHUNK);
    for _ in 0..ROUNDS {
        let (mut ns, mut n) = (0.0, 0u64);
        for _ in 0..BATCHES / CHUNK {
            let inputs: Vec<PacketBatch> = (0..CHUNK)
                .map(|_| gen.next_batch_from_pool(inp.batch_size, &mut pool))
                .collect();
            n += inputs.iter().map(|b| b.len() as u64).sum::<u64>();
            let t = Instant::now();
            for b in inputs {
                held.push(op.process(b));
            }
            ns += t.elapsed().as_nanos() as f64;
            for b in held.drain(..) {
                pkts_out += b.len() as u64;
                pool.recycle_batch(b);
            }
        }
        pkts_in += n;
        per_round.push(ns / n as f64);
    }
    (median(&per_round), pkts_out as f64 / pkts_in.max(1) as f64)
}

/// `sfi` entry/exit around the chain, then `checkpoint` on it. The chain
/// first runs the workload's stream inside its domain, as a lane runs it
/// (thread attached), to reach its end state. Entry/exit is
/// `Domain::execute(run_batch)` minus bare `run_batch` on an empty
/// batch: the boundary's cost does not depend on the batch, and a full
/// batch's own variance (microseconds on the stateful chain) would bury
/// a cost of tens of nanoseconds. Then `export_state`, its encoded
/// size, and `build_with_state`.
fn domain_and_checkpoint(inp: &Inputs<'_>) -> (f64, (f64, f64, f64)) {
    let manager = DomainManager::with_backend_kind(BackendKind::TypedSfi);
    let domain = manager
        .create_domain("perfbench-layers")
        .expect("a fresh manager has room for one domain");
    let _attached = domain.attach_thread().expect("a fresh domain is active");
    let mut pipeline = inp.chain.build();
    let mut gen = (inp.stream)();
    let mut pool = lane_pool(inp.batch_size);
    for _ in 0..ROUNDS * BATCHES {
        let batch = gen.next_batch_from_pool(inp.batch_size, &mut pool);
        let out = domain
            .execute(|| pipeline.run_batch(batch))
            .expect("the workload's chains do not fault");
        pool.recycle_batch(out);
    }
    // Short blocks, alternating which runs first, and the median pair:
    // a descheduling blip lands in few blocks and moves no median.
    let mut block = |inside: bool| {
        let t = Instant::now();
        for _ in 0..BLOCK {
            let out = if inside {
                domain
                    .execute(|| pipeline.run_batch(black_box(PacketBatch::new())))
                    .expect("an empty batch cannot fault")
            } else {
                pipeline.run_batch(black_box(PacketBatch::new()))
            };
            black_box(out);
        }
        t.elapsed().as_nanos() as f64 / BLOCK as f64
    };
    let overheads: Vec<f64> = (0..CALLS / BLOCK)
        .map(|pair| {
            if pair % 2 == 0 {
                let bare = block(false);
                block(true) - bare
            } else {
                let inside = block(true);
                inside - block(false)
            }
        })
        .collect();
    let mut snap = Vec::with_capacity(ROUNDS);
    let mut restore = Vec::with_capacity(ROUNDS);
    let mut bytes = 0;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let cp = pipeline.export_state();
        snap.push(t.elapsed().as_nanos() as f64 / 1e3);
        bytes = rbs_checkpoint::encode(&cp).len();
        let t = Instant::now();
        let rebuilt = inp
            .chain
            .build_with_state(&cp)
            .expect("a chain restores its own snapshot");
        restore.push(t.elapsed().as_nanos() as f64 / 1e3);
        black_box(rebuilt);
    }
    (
        median(&overheads),
        (median(&snap), bytes as f64, median(&restore)),
    )
}

/// One backend's crossing: a null closure through `Domain::execute`.
fn crossing(kind: BackendKind) -> Crossing {
    let manager = DomainManager::with_backend_kind(kind);
    let domain = manager
        .create_domain(format!("perfbench-{}", kind.name()))
        .expect("a fresh manager has room for one domain");
    let _attached = domain.attach_thread().expect("a fresh domain is active");
    let before = manager.backend_totals();
    let mut per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..CALLS {
            domain
                .execute(|| black_box(()))
                .expect("a null closure cannot fault");
        }
        per_round.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    let after = manager.backend_totals();
    Crossing {
        backend: kind,
        ns: median(&per_round),
        model_cycles: (after.model_cycles - before.model_cycles) as f64 / (ROUNDS * CALLS) as f64,
    }
}

/// `runtime.deque`: a push + pop by the owner, and a steal, per batch.
fn deque_spans() -> (f64, f64) {
    let (deque, stealer) = LaneDeque::with_capacity(2 * CHUNK);
    let item = || (PacketBatch::new(), 0usize);
    let (mut push_pop, mut steal) = (0.0, 0.0);
    let rounds = CALLS / CHUNK;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..CHUNK {
            deque.push(item());
        }
        for _ in 0..CHUNK {
            black_box(deque.pop());
        }
        push_pop += t.elapsed().as_nanos() as f64;
        for _ in 0..CHUNK {
            deque.push(item());
        }
        let t = Instant::now();
        for _ in 0..CHUNK {
            match stealer.steal() {
                Steal::Taken(v) => {
                    black_box(v);
                }
                _ => unreachable!("an uncontended deque holding work yields it"),
            }
        }
        steal += t.elapsed().as_nanos() as f64;
    }
    let calls = (rounds * CHUNK) as f64;
    (push_pop / calls, steal / calls)
}

/// Flow hashes of the workload's packets, as steering sees them.
fn flow_hashes(inp: &Inputs<'_>, n: usize) -> Vec<u64> {
    let mut gen = PacketGen::new(inp.traffic.clone());
    let mut pool = lane_pool(inp.batch_size);
    let mut hashes = Vec::with_capacity(n);
    while hashes.len() < n {
        let b = gen.next_batch_from_pool(inp.batch_size, &mut pool);
        hashes.extend(b.iter().map(|p| {
            p.cached_flow_hash()
                .expect("generated packets carry their hash")
        }));
        pool.recycle_batch(b);
    }
    hashes
}

/// The steering table the tenant runtime builds for the storm's
/// tenants (named `tenant-<i>`, so their permutations match).
pub fn tenant_table() -> MaglevTable {
    let backends = (0..tenants::TENANTS)
        .map(|i| Backend::weighted(format!("tenant-{i}"), tenants::zipf_weight(i)))
        .collect();
    MaglevTable::new(backends, 251).expect("251 is prime")
}

/// `maglev`: one lookup in the tenant table per packet.
fn maglev_span(inp: &Inputs<'_>) -> f64 {
    let table = tenant_table();
    let hashes = flow_hashes(inp, CALLS);
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for &h in &hashes {
                black_box(table.lookup(black_box(h)));
            }
            t.elapsed().as_nanos() as f64 / hashes.len() as f64
        })
        .collect();
    median(&per_round)
}

/// `netfx.ratelimit`: one `TickBucket::take` per packet against the
/// bucket of the tenant it steers to, a wave per tick.
fn ratelimit_span(inp: &Inputs<'_>) -> f64 {
    let hashes = flow_hashes(inp, CALLS);
    let tenants = tenants::TENANTS;
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut buckets: Vec<TickBucket> =
                (0..tenants).map(|_| TickBucket::new(400, 800)).collect();
            let t = Instant::now();
            for (i, &h) in hashes.iter().enumerate() {
                let tick = (i / 1536) as u64;
                black_box(buckets[(h % tenants as u64) as usize].take(tick, 1));
            }
            t.elapsed().as_nanos() as f64 / hashes.len() as f64
        })
        .collect();
    median(&per_round)
}
