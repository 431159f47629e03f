//! The firewall as a pipeline stage.
//!
//! Wraps [`FwTrie`] as a `rbs-netfx` [`Operator`] so it can run inside
//! the (optionally SFI-isolated) pipelines of §3, and exposes the
//! checkpoint hooks so a running firewall can be snapshotted and rolled
//! back — the §5 scenario end to end.
//!
//! A direct-mapped verdict cache keyed by flow sits in front of the trie
//! walk. Every path that can change a verdict — [`FirewallOp::trie_mut`],
//! [`FirewallOp::restore_rules`] and the pipeline state restore — clears
//! it, so a cached verdict is always the one the current rules give.

use crate::rule::Action;
use crate::trie::FwTrie;
use rbs_checkpoint::{
    checkpoint, restore, Checkpoint, CheckpointCtx, Checkpointable, RestoreCtx, Snapshot,
    SnapshotError,
};
use rbs_netfx::batch::PacketBatch;
use rbs_netfx::flow::FiveTuple;
use rbs_netfx::pipeline::Operator;

/// log2 of the verdict cache's slot count.
const VERDICT_CACHE_BITS: u32 = 12;

/// Verdict cache slots.
const VERDICT_CACHE_SLOTS: usize = 1 << VERDICT_CACHE_BITS;

/// The verdict cache slot of a flow with stable hash `hash`: its top
/// bits. Lanes shard flows by `stable_hash() % lanes`, so on one lane the
/// low bits are fixed and would leave most slots unreachable.
fn cache_slot(hash: u64) -> usize {
    (hash >> (64 - VERDICT_CACHE_BITS)) as usize
}

/// What the data path does with a packet. Rate-limit rules forward, so a
/// cached verdict needs no rate, which keeps a cache slot at 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Allow,
    Deny,
    RateLimit,
}

impl From<Action> for Fate {
    fn from(action: Action) -> Self {
        match action {
            Action::Allow => Fate::Allow,
            Action::Deny => Fate::Deny,
            Action::RateLimit(_) => Fate::RateLimit,
        }
    }
}

/// Packet-filtering pipeline stage backed by the rule trie.
pub struct FirewallOp {
    trie: FwTrie,
    /// Applied when no rule matches.
    default_action: Action,
    /// Direct-mapped by flow hash; a hit compares the full tuple.
    cache: Box<[Option<(FiveTuple, Fate)>]>,
    allowed: u64,
    denied: u64,
    rate_limited: u64,
}

impl FirewallOp {
    /// Wraps `trie` with a default action for unmatched packets.
    pub fn new(trie: FwTrie, default_action: Action) -> Self {
        Self {
            trie,
            default_action,
            cache: vec![None; VERDICT_CACHE_SLOTS].into_boxed_slice(),
            allowed: 0,
            denied: 0,
            rate_limited: 0,
        }
    }

    /// The decision for one flow, from the rule trie (uncached).
    pub fn decide(&self, flow: &FiveTuple) -> Action {
        self.trie
            .lookup(flow)
            .map(|r| r.action)
            .unwrap_or(self.default_action)
    }

    /// [`FirewallOp::decide`] through the verdict cache, for a flow with
    /// stable hash `hash`. A wrong `hash` costs a miss, never a wrong
    /// verdict: a hit compares the full tuple.
    fn fate(&mut self, flow: &FiveTuple, hash: u64) -> Fate {
        let slot = cache_slot(hash);
        match self.cache[slot] {
            Some((cached, fate)) if cached == *flow => fate,
            _ => {
                let fate = Fate::from(self.decide(flow));
                self.cache[slot] = Some((*flow, fate));
                fate
            }
        }
    }

    fn clear_cache(&mut self) {
        self.cache.fill(None);
    }

    /// Read access to the rule database.
    pub fn trie(&self) -> &FwTrie {
        &self.trie
    }

    /// Mutable access to the rule database (control plane). Clears the
    /// verdict cache.
    pub fn trie_mut(&mut self) -> &mut FwTrie {
        self.clear_cache();
        &mut self.trie
    }

    /// Packets forwarded so far.
    pub fn allowed(&self) -> u64 {
        self.allowed
    }

    /// Packets dropped so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Packets forwarded under a rate-limit rule.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Snapshots the rule database (counters are data-path state, not
    /// configuration, and are not part of the checkpoint).
    pub fn checkpoint_rules(&self) -> Checkpoint {
        checkpoint(&self.trie)
    }

    /// Replaces the rule database from a checkpoint — §3's recovery
    /// function uses this to re-initialize a failed firewall domain.
    /// Clears the verdict cache.
    pub fn restore_rules(&mut self, cp: &Checkpoint) -> Result<(), SnapshotError> {
        self.trie = restore(cp)?;
        self.clear_cache();
        Ok(())
    }
}

impl Operator for FirewallOp {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        batch.retain(|packet| {
            let fate = match FiveTuple::of(packet) {
                // The generator's hash stamp, when present, saves
                // hashing on every packet.
                Ok(flow) => {
                    let hash = packet
                        .cached_flow_hash()
                        .unwrap_or_else(|| flow.stable_hash());
                    self.fate(&flow, hash)
                }
                // Non-flow traffic is dropped, like any default-deny box.
                Err(_) => Fate::Deny,
            };
            match fate {
                Fate::Allow => self.allowed += 1,
                Fate::Deny => self.denied += 1,
                Fate::RateLimit => self.rate_limited += 1,
            }
            fate != Fate::Deny
        });
        batch
    }

    fn name(&self) -> &str {
        "firewall"
    }

    // The pipeline-level state hooks delegate to the trie's
    // `Checkpointable` impl inside the *shared* pipeline context, so
    // `CkArc`-aliased rules deduplicate across stages too. Counters and
    // the verdict cache stay out, matching `checkpoint_rules`.
    fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        Some(self.trie.checkpoint(ctx))
    }

    fn restore_state(
        &mut self,
        snap: &Snapshot,
        ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        self.trie = FwTrie::restore(snap, ctx)?;
        self.clear_cache();
        Ok(())
    }

    fn state_items(&self) -> u64 {
        self.trie.rule_refs() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use proptest::prelude::*;
    use rbs_netfx::headers::ethernet::MacAddr;
    use rbs_netfx::headers::tcp::TcpFlags;
    use rbs_netfx::headers::IpProto;
    use rbs_netfx::packet::Packet;
    use rbs_netfx::pipeline::Pipeline;
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex, OnceLock};

    fn packet(dst: Ipv4Addr, dport: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(1, 1, 1, 1),
            dst,
            999,
            dport,
            0,
        )
    }

    fn firewall() -> FirewallOp {
        let mut t = FwTrie::new();
        t.insert(
            Rule::new(1, "allow-dns", Ipv4Addr::new(10, 0, 0, 0), 8, Action::Allow).dports(53, 53),
        );
        t.insert(Rule::new(
            2,
            "deny-ten",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        t.insert(
            Rule::new(
                3,
                "limit-web",
                Ipv4Addr::new(20, 0, 0, 0),
                8,
                Action::RateLimit(100),
            )
            .dports(80, 80)
            .proto(IpProto::Udp),
        );
        FirewallOp::new(t, Action::Deny)
    }

    #[test]
    fn filtering_by_action() {
        let mut fw = firewall();
        let batch: PacketBatch = vec![
            packet(Ipv4Addr::new(10, 1, 1, 1), 53), // allow (id 1, dns)
            packet(Ipv4Addr::new(10, 1, 1, 1), 80), // deny (id 2)
            packet(Ipv4Addr::new(20, 1, 1, 1), 80), // rate-limit (id 3)
            packet(Ipv4Addr::new(30, 1, 1, 1), 80), // default deny
        ]
        .into_iter()
        .collect();
        let out = fw.process(batch);
        assert_eq!(out.len(), 2);
        assert_eq!(fw.allowed(), 1);
        assert_eq!(fw.denied(), 2);
        assert_eq!(fw.rate_limited(), 1);
    }

    #[test]
    fn default_action_applies_when_no_match() {
        let mut t = FwTrie::new();
        t.insert(Rule::new(
            1,
            "r",
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            Action::Deny,
        ));
        let mut fw = FirewallOp::new(t, Action::Allow);
        let out = fw.process(
            vec![packet(Ipv4Addr::new(99, 9, 9, 9), 1)]
                .into_iter()
                .collect(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(fw.allowed(), 1);
    }

    #[test]
    fn non_flow_traffic_dropped() {
        let mut fw = FirewallOp::new(FwTrie::new(), Action::Allow);
        let mut p = packet(Ipv4Addr::new(10, 0, 0, 1), 1);
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        let out = fw.process(vec![p].into_iter().collect());
        assert_eq!(out.len(), 0);
        assert_eq!(fw.denied(), 1);
    }

    #[test]
    fn checkpoint_rollback_cycle() {
        let mut fw = firewall();
        let cp = fw.checkpoint_rules();
        // Control plane mutates: everything to 30/8 allowed.
        fw.trie_mut().insert(Rule::new(
            4,
            "new",
            Ipv4Addr::new(30, 0, 0, 0),
            8,
            Action::Allow,
        ));
        let f = FiveTuple {
            src_ip: Ipv4Addr::new(1, 1, 1, 1),
            dst_ip: Ipv4Addr::new(30, 1, 1, 1),
            src_port: 9,
            dst_port: 9,
            proto: IpProto::Udp,
        };
        assert_eq!(fw.decide(&f), Action::Allow);
        fw.restore_rules(&cp).unwrap();
        assert_eq!(fw.decide(&f), Action::Deny, "rolled back to default deny");
    }

    #[test]
    fn operator_name() {
        assert_eq!(firewall().name(), "firewall");
    }

    #[test]
    fn pipeline_state_hooks_rebuild_a_warm_firewall() {
        use rbs_netfx::pipeline::PipelineSpec;

        let spec = PipelineSpec::new().stage(|| FirewallOp::new(FwTrie::new(), Action::Deny));
        let live = spec.build();
        assert_eq!(live.state_items(), 0);

        // Control plane installs rules into the *live* pipeline only.
        // (The spec's factory still builds empty firewalls — exactly the
        // state a cold restart would lose.)
        let stateless_replica = spec.build();
        assert_eq!(stateless_replica.state_items(), 0);
        drop(stateless_replica);
        // No mutable stage access on Pipeline; drive state through a
        // fresh op instead and checkpoint at the operator level.
        let mut fw = firewall();
        fw.trie_mut().insert(Rule::new(
            9,
            "extra",
            Ipv4Addr::new(30, 0, 0, 0),
            8,
            Action::Allow,
        ));
        let rules = fw.trie().rule_refs();
        assert!(rules >= 4);

        let spec2 = {
            let seed = fw.checkpoint_rules();
            PipelineSpec::new().stage(move || {
                let mut op = FirewallOp::new(FwTrie::new(), Action::Deny);
                op.restore_rules(&seed).unwrap();
                op
            })
        };
        let warm = spec2.build();
        assert_eq!(warm.state_items(), rules as u64);

        // And the pipeline-level export/import path round-trips the same
        // rule database.
        let cp = warm.export_state();
        let replica = spec2.build_with_state(&cp).unwrap();
        assert_eq!(replica.state_items(), rules as u64);
        assert_eq!(replica.export_state().root, cp.root);
    }

    #[test]
    fn one_lanes_flows_reach_every_cache_slot() {
        use rbs_netfx::pktgen::{PacketGen, TrafficConfig};

        // Lane 3 of 4 owns the flows with `stable_hash() % 4 == 3`: 16 per
        // slot on average here, so every slot holds some.
        let config = TrafficConfig {
            flows: 1 << 18,
            payload_len: 0,
            ..TrafficConfig::default()
        };
        let mut lane = PacketGen::rss_slice(config, 3, 4);
        let mut reached = vec![false; VERDICT_CACHE_SLOTS];
        let mut left = VERDICT_CACHE_SLOTS;
        for _ in 0..64 * VERDICT_CACHE_SLOTS {
            let flow = FiveTuple::of(&lane.next_packet()).unwrap();
            assert_eq!(flow.stable_hash() % 4, 3);
            let slot = &mut reached[cache_slot(flow.stable_hash())];
            if !*slot {
                *slot = true;
                left -= 1;
                if left == 0 {
                    return;
                }
            }
        }
        panic!("{left} of {VERDICT_CACHE_SLOTS} slots never reached");
    }

    #[test]
    fn a_skewed_lane_mostly_hits_the_cache() {
        use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};

        // The cache pays off only when flows repeat. On perfbench's
        // `lanes-skew-stateful` mix (Zipf(1.2) over 65,536 flows, lane 0
        // of 2), replaying the cache's fill rule over `cache_slot` serves
        // about nine packets in ten. A uniform mix over as many flows
        // hits about one in eight.
        let config = TrafficConfig {
            flows: 65_536,
            distribution: FlowDistribution::Zipf(1.2),
            payload_len: 0,
            ..TrafficConfig::default()
        };
        let mut lane = PacketGen::rss_slice(config, 0, 2);
        let mut cache = vec![None; VERDICT_CACHE_SLOTS];
        let packets = 200_000;
        let mut hits = 0;
        for _ in 0..packets {
            let flow = FiveTuple::of(&lane.next_packet()).unwrap();
            let slot = &mut cache[cache_slot(flow.stable_hash())];
            if *slot == Some(flow) {
                hits += 1;
            }
            *slot = Some(flow);
        }
        assert!(hits * 100 > packets * 85, "{hits} hits of {packets}");
    }

    /// Six base flows, each followed by three flows on its cache slot
    /// (found by brute force over destination /24 and port), so a hit
    /// has to tell apart flows that rules treat differently.
    fn cache_flows() -> &'static [FiveTuple] {
        static FLOWS: OnceLock<Vec<FiveTuple>> = OnceLock::new();
        FLOWS.get_or_init(|| {
            let mut flows = Vec::new();
            for base in 0..6u8 {
                let flow = |k: u32| FiveTuple {
                    src_ip: Ipv4Addr::new(1, 1, 1, base),
                    dst_ip: Ipv4Addr::new(10, 0, (k >> 16) as u8, base),
                    src_port: 1000,
                    dst_port: k as u16,
                    proto: if base % 2 == 0 {
                        IpProto::Udp
                    } else {
                        IpProto::Tcp
                    },
                };
                let first = flow(u32::from(base) * 1000);
                flows.push(first);
                flows.extend(
                    (0..4 << 16)
                        .map(flow)
                        .filter(|f| {
                            *f != first
                                && cache_slot(f.stable_hash()) == cache_slot(first.stable_hash())
                        })
                        .take(3),
                );
            }
            assert_eq!(flows.len(), 24);
            flows
        })
    }

    fn flow_packet(flow: &FiveTuple) -> Packet {
        let (src, dst) = (flow.src_ip, flow.dst_ip);
        let (sport, dport) = (flow.src_port, flow.dst_port);
        match flow.proto {
            IpProto::Tcp => Packet::build_tcp(
                MacAddr::ZERO,
                MacAddr::ZERO,
                src,
                dst,
                sport,
                dport,
                TcpFlags(0),
                4,
            ),
            _ => Packet::build_udp(MacAddr::ZERO, MacAddr::ZERO, src, dst, sport, dport, 4),
        }
    }

    #[test]
    fn colliding_flows_keep_their_own_verdicts() {
        let flows = &cache_flows()[..4];
        assert!(flows
            .iter()
            .all(|f| cache_slot(f.stable_hash()) == cache_slot(flows[0].stable_hash())));
        let mut t = FwTrie::new();
        // Only the second flow is denied; all four share one slot.
        t.insert(
            Rule::new(1, "one-port", flows[1].dst_ip, 32, Action::Deny)
                .dports(flows[1].dst_port, flows[1].dst_port),
        );
        let mut fw = FirewallOp::new(t, Action::Allow);
        for _ in 0..3 {
            for (i, f) in flows.iter().enumerate() {
                let out = fw.process(std::iter::once(flow_packet(f)).collect());
                assert_eq!(out.len(), usize::from(i != 1), "flow {i}");
            }
        }
        assert_eq!((fw.allowed(), fw.denied()), (9, 3));
    }

    #[test]
    fn every_rule_path_clears_the_verdict_cache() {
        use rbs_checkpoint::{checkpoint_scope, restore_scope, DedupMode};

        let flow = cache_flows()[0];
        let pass = |fw: &mut FirewallOp| {
            fw.process(std::iter::once(flow_packet(&flow)).collect())
                .len()
        };
        let mut t = FwTrie::new();
        t.insert(Rule::new(1, "deny", flow.dst_ip, 8, Action::Deny));
        let mut fw = FirewallOp::new(t, Action::Allow);
        let rules = fw.checkpoint_rules();
        let state = checkpoint_scope(DedupMode::EpochFlag, |ctx| {
            fw.checkpoint_state(ctx).expect("the firewall is stateful")
        });
        assert_eq!(pass(&mut fw), 0);

        fw.trie_mut().remove_rule(1);
        assert_eq!(pass(&mut fw), 1, "trie_mut");
        fw.restore_rules(&rules).unwrap();
        assert_eq!(pass(&mut fw), 0, "restore_rules");

        fw.trie_mut().remove_rule(1);
        assert_eq!(pass(&mut fw), 1);
        restore_scope(&state, |root, ctx| fw.restore_state(root, ctx)).unwrap();
        assert_eq!(pass(&mut fw), 0, "restore_state");
    }

    /// The firewall shared with the test, so it stays reachable while a
    /// pipeline owns it.
    struct Shared(Arc<Mutex<FirewallOp>>);

    impl Operator for Shared {
        fn process(&mut self, batch: PacketBatch) -> PacketBatch {
            self.0.lock().unwrap().process(batch)
        }

        fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
            self.0.lock().unwrap().checkpoint_state(ctx)
        }

        fn restore_state(
            &mut self,
            snap: &Snapshot,
            ctx: &mut RestoreCtx<'_>,
        ) -> Result<(), SnapshotError> {
            self.0.lock().unwrap().restore_state(snap, ctx)
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Packets as (flow, stamp, other): `flow` indexes
        /// [`cache_flows`], one past the end is an ICMP packet; `stamp` 0
        /// leaves the hash stamp off, 1 stamps the flow's own hash, 2 the
        /// hash of flow `other`.
        Batch(Vec<(usize, u8, usize)>),
        Insert(Rule),
        Remove(u32),
        /// Takes `checkpoint_rules` and the pipeline's `export_state`.
        Save,
        RestoreRules,
        RestoreState,
    }

    fn rule() -> impl Strategy<Value = Rule> {
        let dst = prop_oneof![
            Just((Ipv4Addr::new(0, 0, 0, 0), 0)),
            Just((Ipv4Addr::new(10, 0, 0, 0), 8)),
            Just((Ipv4Addr::new(10, 0, 0, 0), 16)),
            Just((Ipv4Addr::new(10, 0, 1, 0), 24)),
            Just((Ipv4Addr::new(10, 0, 2, 0), 23)),
            (0..4u8, 0..6u8).prop_map(|(c, d)| (Ipv4Addr::new(10, 0, c, d), 32)),
        ];
        let action = prop_oneof![
            Just(Action::Allow),
            Just(Action::Deny),
            (1..1000u64).prop_map(Action::RateLimit),
        ];
        (
            0..12u32,
            dst,
            action,
            // Each residual field is restricted in about a third of the
            // rules, so most rules decide some of the flows.
            0..18u8,
            (0..3u8, any::<u16>(), any::<u16>()),
            prop_oneof![
                4 => Just(None),
                1 => Just(Some(IpProto::Udp)),
                1 => Just(Some(IpProto::Tcp))
            ],
        )
            .prop_map(|(id, (net, len), action, src, (ranged, a, b), proto)| {
                let mut rule = Rule::new(id, format!("r{id}"), net, len, action);
                if src < 6 {
                    rule = rule.src(Ipv4Addr::new(1, 1, 1, src), 32);
                }
                if ranged == 0 {
                    rule = rule.dports(a.min(b), a.max(b));
                }
                if let Some(p) = proto {
                    rule = rule.proto(p);
                }
                rule
            })
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => proptest::collection::vec((0..25usize, 0..3u8, 0..24usize), 0..40)
                .prop_map(Step::Batch),
            3 => rule().prop_map(Step::Insert),
            1 => (0..12u32).prop_map(Step::Remove),
            1 => Just(Step::Save),
            1 => Just(Step::RestoreRules),
            1 => Just(Step::RestoreState),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cached_verdicts_match_uncached_decide(
            initial in proptest::collection::vec(rule(), 0..6),
            default_deny in any::<bool>(),
            steps in proptest::collection::vec(step(), 1..24),
        ) {
            let flows = cache_flows();
            let mut trie = FwTrie::new();
            for r in initial {
                trie.insert(r);
            }
            let default = if default_deny { Action::Deny } else { Action::Allow };
            let fw = Arc::new(Mutex::new(FirewallOp::new(trie, default)));
            let mut live = Pipeline::new().add(Shared(fw.clone()));
            let rules = fw.lock().unwrap().checkpoint_rules();
            let mut saved = (rules, live.export_state());
            for step in steps {
                match step {
                    Step::Batch(picks) => {
                        let (want, counts) = {
                            let fw = fw.lock().unwrap();
                            let mut want = Vec::new();
                            let mut counts = [fw.allowed(), fw.denied(), fw.rate_limited()];
                            for &(i, _, _) in &picks {
                                match flows.get(i).map(|f| fw.decide(f)) {
                                    Some(Action::Allow) => {
                                        counts[0] += 1;
                                        want.push(Some(flows[i]));
                                    }
                                    Some(Action::RateLimit(_)) => {
                                        counts[2] += 1;
                                        want.push(Some(flows[i]));
                                    }
                                    Some(Action::Deny) | None => counts[1] += 1,
                                }
                            }
                            (want, counts)
                        };
                        let batch: PacketBatch = picks
                            .iter()
                            .map(|&(i, stamp, other)| {
                                let mut p = match flows.get(i) {
                                    Some(f) => flow_packet(f),
                                    None => {
                                        let mut p = flow_packet(&flows[0]);
                                        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
                                        p
                                    }
                                };
                                match stamp {
                                    0 => {}
                                    1 => {
                                        let own = FiveTuple::of(&p).map(|f| f.stable_hash());
                                        p.set_cached_flow_hash(own.unwrap_or(0));
                                    }
                                    _ => p.set_cached_flow_hash(flows[other].stable_hash()),
                                }
                                p
                            })
                            .collect();
                        let out: Vec<_> = live
                            .run_batch(batch)
                            .iter()
                            .map(|p| FiveTuple::of(p).ok())
                            .collect();
                        prop_assert_eq!(out, want);
                        let fw = fw.lock().unwrap();
                        prop_assert_eq!([fw.allowed(), fw.denied(), fw.rate_limited()], counts);
                    }
                    Step::Insert(r) => {
                        fw.lock().unwrap().trie_mut().insert(r);
                    }
                    Step::Remove(id) => {
                        fw.lock().unwrap().trie_mut().remove_rule(id);
                    }
                    Step::Save => {
                        let rules = fw.lock().unwrap().checkpoint_rules();
                        saved = (rules, live.export_state());
                    }
                    Step::RestoreRules => fw.lock().unwrap().restore_rules(&saved.0).unwrap(),
                    Step::RestoreState => live.import_state(&saved.1).unwrap(),
                }
            }
        }
    }
}
