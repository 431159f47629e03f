//! The operator stages the workloads' chains are built from, and the
//! traffic mixes they run on.

use std::net::Ipv4Addr;

use rbs_fwtrie::{Action, FirewallOp, FwTrie, Rule};
use rbs_netfx::operators::{DstPortFilter, MacSwap, NullFilter, TtlDecrement};
use rbs_netfx::{FlowDistribution, FlowTracker, Operator, PipelineSpec, SourceNat, TrafficConfig};

/// One operator stage, named by its `netfx.stage.<key>` metric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Null,
    Ttl,
    MacSwap,
    /// `FirewallOp` over [`firewall_rules`].
    Firewall,
    /// `FlowTracker` with this flow capacity.
    FlowTrack(usize),
    /// The stock tenant chain's port-80/53 filter.
    PortFilter,
    /// The stock tenant chain's source NAT for tenant 0.
    Nat,
}

/// Every stage key, in report order, with the variant replayed for it on
/// a workload whose chain does not contain it.
pub const CATALOGUE: [Stage; 7] = [
    Stage::Null,
    Stage::Ttl,
    Stage::MacSwap,
    Stage::Firewall,
    Stage::FlowTrack(FLOWTRACK_CAPACITY),
    Stage::PortFilter,
    Stage::Nat,
];

/// Flow capacity of the stateful lanes chain's tracker.
const FLOWTRACK_CAPACITY: usize = 100_000;

/// The stateless lanes chain.
pub const BARE: [Stage; 3] = [Stage::Null, Stage::Ttl, Stage::MacSwap];

/// The stateful lanes chain.
pub const STATEFUL: [Stage; 2] = [Stage::Firewall, Stage::FlowTrack(FLOWTRACK_CAPACITY)];

/// The stages of `rbs_runtime::default_tenant_chain`, which the tenant
/// workload runs.
pub const TENANT: [Stage; 3] = [Stage::PortFilter, Stage::Nat, Stage::FlowTrack(4_096)];

impl Stage {
    pub fn key(self) -> &'static str {
        match self {
            Stage::Null => "null",
            Stage::Ttl => "ttl",
            Stage::MacSwap => "macswap",
            Stage::Firewall => "firewall",
            Stage::FlowTrack(_) => "flowtrack",
            Stage::PortFilter => "portfilter",
            Stage::Nat => "nat",
        }
    }

    pub fn build(self) -> Box<dyn Operator + Send> {
        match self {
            Stage::Null => Box::new(NullFilter::new()),
            Stage::Ttl => Box::new(TtlDecrement::new()),
            Stage::MacSwap => Box::new(MacSwap::new()),
            Stage::Firewall => Box::new(firewall()),
            Stage::FlowTrack(capacity) => Box::new(FlowTracker::new(capacity)),
            Stage::PortFilter => Box::new(port_filter()),
            Stage::Nat => Box::new(nat()),
        }
    }
}

/// A pipeline spec running `stages` in order.
pub fn spec(stages: &[Stage]) -> PipelineSpec {
    stages
        .iter()
        .fold(PipelineSpec::new(), |spec, &stage| match stage {
            Stage::Null => spec.stage(NullFilter::new),
            Stage::Ttl => spec.stage(TtlDecrement::new),
            Stage::MacSwap => spec.stage(MacSwap::new),
            Stage::Firewall => spec.stage(firewall),
            Stage::FlowTrack(capacity) => spec.stage(move || FlowTracker::new(capacity)),
            Stage::PortFilter => spec.stage(port_filter),
            Stage::Nat => spec.stage(nat),
        })
}

fn port_filter() -> DstPortFilter {
    DstPortFilter::new(vec![80, 53])
}

fn nat() -> SourceNat {
    SourceNat::new(
        Ipv4Addr::new(203, 0, 113, 10),
        Ipv4Addr::new(10, 0, 0, 0),
        8,
        40_000..=50_000,
    )
}

fn firewall() -> FirewallOp {
    FirewallOp::new(firewall_rules(), Action::Allow)
}

/// 64 rules. Every fourth guards the traffic's destination (192.0.2.0/24)
/// by source /24 (10.0.1.0, 10.0.5.0, ...), and every other one of those
/// denies; the remaining 48 guard other destinations and are never on a
/// lookup's path. Generated sources are `10.0.0.0 + flow id`, so the
/// denied share depends on the mix: 2 of 16 source /24s on the uniform
/// 4096-flow mix, and a few percent of packets on the Zipf mix, whose
/// popular flows sit in 10.0.0.0/24.
fn firewall_rules() -> FwTrie {
    let mut trie = FwTrie::new();
    for k in 0..64u32 {
        let rule = if k % 4 == 0 {
            let action = if k % 8 == 0 {
                Action::Deny
            } else {
                Action::Allow
            };
            Rule::new(
                k,
                format!("vip-src-{k}"),
                Ipv4Addr::new(192, 0, 2, 0),
                24,
                action,
            )
            .src(Ipv4Addr::new(10, 0, 1 + k as u8, 0), 24)
        } else {
            Rule::new(
                k,
                format!("other-{k}"),
                Ipv4Addr::new(198, 18, k as u8, 0),
                24,
                Action::Allow,
            )
        };
        trie.insert(rule);
    }
    trie
}

/// A traffic mix: `flows` UDP flows with `payload_len`-byte payloads.
pub fn traffic(
    flows: usize,
    distribution: FlowDistribution,
    payload_len: usize,
    seed: u64,
) -> TrafficConfig {
    TrafficConfig {
        flows,
        distribution,
        payload_len,
        seed,
        ..TrafficConfig::default()
    }
}

/// The per-trial seed: trial `t` of a run with seed `seed` (splitmix64).
pub fn trial_seed(seed: u64, trial: u64) -> u64 {
    let mut z = seed.wrapping_add(trial.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
