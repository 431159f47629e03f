//! A flow-tracking operator with real per-flow state.
//!
//! [`FlowTracker`] maintains a bounded table of per-flow counters — the
//! canonical example of operator state whose loss is *observable*: after
//! a crash, a cold-started tracker has forgotten every flow it had seen,
//! while a warm-recovered one resumes within one snapshot interval of
//! the truth. The entries are hash-indexed by the flow's 5-tuple, so a
//! packet costs one O(1) probe; exports walk them in tuple order, so
//! checkpoint bytes are deterministic across runs.

use rbs_checkpoint::{CheckpointCtx, Checkpointable, RestoreCtx, Snapshot, SnapshotError};

use crate::batch::PacketBatch;
use crate::flow::FiveTuple;
use crate::pipeline::Operator;

/// Per-flow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEntry {
    /// Packets observed on this flow.
    pub packets: u64,
    /// Total frame bytes observed on this flow.
    pub bytes: u64,
}

rbs_checkpoint::checkpointable!(struct FlowEntry { packets, bytes });

/// Entries per storage chunk: 2048 × 32 B = 64 KiB. Measured on a
/// two-lane run at ~32k flows per lane: the entries in one growing `Vec`
/// raised RSS by a fifth, and in a `std` `HashMap` by two fifths; in
/// chunks it stayed flat. The cause is not pinned down (the index below
/// is itself one growing block, 256 KiB at that size).
const CHUNK: usize = 2048;

/// An empty index slot.
const EMPTY: u32 = u32::MAX;

/// Flow entries in insertion order, plus an open-addressed (linear
/// probing) index of entry numbers keyed by [`FiveTuple::stable_hash`].
/// Entries are never removed one at a time, so the index needs no
/// tombstones.
struct FlowTable {
    chunks: Vec<Vec<(FiveTuple, FlowEntry)>>,
    /// Power-of-two length, at least 16, at most half full.
    index: Vec<u32>,
    len: usize,
}

impl FlowTable {
    /// An empty table whose index takes `flows` entries without growing.
    fn with_room_for(flows: usize) -> Self {
        let mut table = FlowTable {
            chunks: Vec::new(),
            index: Vec::new(),
            len: 0,
        };
        table.reserve_index(flows);
        table
    }

    fn entry(&self, n: u32) -> &(FiveTuple, FlowEntry) {
        let n = n as usize;
        &self.chunks[n / CHUNK][n % CHUNK]
    }

    fn entry_mut(&mut self, n: u32) -> &mut (FiveTuple, FlowEntry) {
        let n = n as usize;
        &mut self.chunks[n / CHUNK][n % CHUNK]
    }

    /// `tuple`'s home slot: the top bits of its stable hash. Lanes shard
    /// flows by `stable_hash() % lanes`, so on one lane the low bits are
    /// fixed; homes taken from them would be every `lanes`-th slot only.
    fn home(&self, tuple: &FiveTuple) -> usize {
        let bits = self.index.len().trailing_zeros();
        (tuple.stable_hash() >> (64 - bits)) as usize
    }

    /// The index slot holding `tuple`'s entry number, or the empty slot
    /// where it would go.
    fn probe(&self, tuple: &FiveTuple) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = self.home(tuple);
        loop {
            let n = self.index[slot];
            if n == EMPTY || self.entry(n).0 == *tuple {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn get(&self, tuple: &FiveTuple) -> Option<&FlowEntry> {
        match self.index[self.probe(tuple)] {
            EMPTY => None,
            n => Some(&self.entry(n).1),
        }
    }

    /// The entry for `tuple`, inserting a zeroed one first if absent and
    /// the table holds fewer than `capacity` flows.
    fn get_or_admit(&mut self, tuple: &FiveTuple, capacity: usize) -> Option<&mut FlowEntry> {
        let mut slot = self.probe(tuple);
        if self.index[slot] == EMPTY {
            if self.len >= capacity {
                return None;
            }
            if 2 * (self.len + 1) > self.index.len() {
                self.reserve_index(self.len + 1);
                slot = self.probe(tuple);
            }
            self.push(*tuple, FlowEntry::default());
            self.index[slot] = (self.len - 1) as u32;
        }
        let n = self.index[slot];
        Some(&mut self.entry_mut(n).1)
    }

    fn push(&mut self, tuple: FiveTuple, entry: FlowEntry) {
        assert!(self.len < EMPTY as usize, "flow table full");
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[self.len / CHUNK].push((tuple, entry));
        self.len += 1;
    }

    /// Grows the index to take `flows` entries at most half full, and
    /// re-files every entry.
    fn reserve_index(&mut self, flows: usize) {
        let slots = (2 * flows).next_power_of_two().max(16);
        if slots > self.index.len() {
            self.index = vec![EMPTY; slots];
            for n in 0..self.len as u32 {
                let slot = self.probe(&self.entry(n).0);
                self.index[slot] = n;
            }
        }
    }

    /// Every entry, in tuple order.
    fn sorted(&self) -> impl ExactSizeIterator<Item = (&FiveTuple, &FlowEntry)> {
        let mut all: Vec<_> = self.chunks.iter().flatten().map(|(t, e)| (t, e)).collect();
        all.sort_unstable_by_key(|&(t, _)| t);
        all.into_iter()
    }
}

/// A pass-through operator that tracks per-flow packet/byte counts.
///
/// The tracker never drops packets — it observes. New flows are admitted
/// until `capacity`; beyond that, packets on unknown flows are still
/// forwarded but counted in [`FlowTracker::overflow`] instead of the
/// table (deterministic admission: first-come, first-tracked). Packets
/// without an extractable 5-tuple count as
/// [`FlowTracker::untracked`].
pub struct FlowTracker {
    flows: FlowTable,
    capacity: usize,
    overflow: u64,
    untracked: u64,
}

impl FlowTracker {
    /// Creates a tracker admitting at most `capacity` distinct flows.
    pub fn new(capacity: usize) -> Self {
        Self {
            flows: FlowTable::with_room_for(0),
            capacity: capacity.max(1),
            overflow: 0,
            untracked: 0,
        }
    }

    /// Number of distinct flows currently tracked.
    pub fn flow_count(&self) -> usize {
        self.flows.len
    }

    /// The counters for one flow, if tracked.
    pub fn flow(&self, tuple: &FiveTuple) -> Option<&FlowEntry> {
        self.flows.get(tuple)
    }

    /// The full flow table, in deterministic (tuple-ordered) order.
    pub fn flows(&self) -> impl ExactSizeIterator<Item = (&FiveTuple, &FlowEntry)> {
        self.flows.sorted()
    }

    /// Packets on flows rejected because the table was full.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Packets without an extractable 5-tuple (non-TCP/UDP).
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Maximum number of distinct flows admitted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Operator for FlowTracker {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        for packet in batch.iter() {
            // Keyed by the parsed tuple, never by the packet's cached
            // hash stamp: a wrong stamp must not split a flow's state.
            let Ok(tuple) = FiveTuple::of(packet) else {
                self.untracked += 1;
                continue;
            };
            match self.flows.get_or_admit(&tuple, self.capacity) {
                Some(entry) => {
                    entry.packets += 1;
                    entry.bytes += packet.len() as u64;
                }
                None => self.overflow += 1,
            }
        }
        batch
    }

    fn name(&self) -> &str {
        "flow-tracker"
    }

    // The flow table is the state worth surviving a crash; the overflow
    // and untracked diagnostics restart from zero like any gauge. The
    // snapshot is a tuple-ordered map, the shape a `BTreeMap` exports.
    fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        let pairs = self
            .flows
            .sorted()
            .map(|(t, e)| (t.checkpoint(ctx), e.checkpoint(ctx)))
            .collect();
        Some(Snapshot::Map(pairs))
    }

    fn restore_state(
        &mut self,
        snap: &Snapshot,
        ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        let Snapshot::Map(pairs) = snap else {
            return Err(SnapshotError::TypeMismatch {
                expected: "map",
                found: snap.kind_name(),
            });
        };
        // A repeated key keeps its last value, as a map would.
        let mut flows = FlowTable::with_room_for(pairs.len());
        for (k, v) in pairs {
            let tuple = FiveTuple::restore(k, ctx)?;
            let entry = FlowEntry::restore(v, ctx)?;
            *flows
                .get_or_admit(&tuple, usize::MAX)
                .expect("unbounded admission") = entry;
        }
        if flows.len > self.capacity {
            return Err(SnapshotError::WrongLength {
                expected: self.capacity,
                got: flows.len,
            });
        }
        self.flows = flows;
        Ok(())
    }

    fn state_items(&self) -> u64 {
        self.flows.len as u64
    }
}

impl std::fmt::Debug for FlowTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTracker")
            .field("flows", &self.flows.len)
            .field("capacity", &self.capacity)
            .field("overflow", &self.overflow)
            .field("untracked", &self.untracked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::headers::ipv4::IpProto;
    use crate::packet::Packet;
    use crate::pipeline::PipelineSpec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};

    fn pkt(src_port: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            src_port,
            80,
            16,
        )
    }

    fn batch(ports: &[u16]) -> PacketBatch {
        ports.iter().map(|&p| pkt(p)).collect()
    }

    #[test]
    fn counts_per_flow() {
        let mut t = FlowTracker::new(16);
        let out = t.process(batch(&[1000, 1000, 1001]));
        assert_eq!(out.len(), 3, "tracker forwards everything");
        assert_eq!(t.flow_count(), 2);
        let tuple = FiveTuple::of(&pkt(1000)).unwrap();
        assert_eq!(t.flow(&tuple).unwrap().packets, 2);
        assert!(t.flow(&tuple).unwrap().bytes > 0);
    }

    #[test]
    fn capacity_bound_is_deterministic() {
        let mut t = FlowTracker::new(2);
        t.process(batch(&[1, 2, 3, 4, 1]));
        // First two distinct flows admitted, later ones overflow; the
        // admitted flows keep counting.
        assert_eq!(t.flow_count(), 2);
        assert_eq!(t.overflow(), 2);
        assert_eq!(t.flow(&FiveTuple::of(&pkt(1)).unwrap()).unwrap().packets, 2);
    }

    #[test]
    fn non_transport_packets_are_untracked() {
        let mut t = FlowTracker::new(4);
        let mut p = pkt(9);
        p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
        t.process(std::iter::once(p).collect());
        assert_eq!(t.flow_count(), 0);
        assert_eq!(t.untracked(), 1);
    }

    #[test]
    fn state_survives_spec_rebuild() {
        let spec = PipelineSpec::new().stage(|| FlowTracker::new(64));
        let mut live = spec.build();
        live.run_batch(batch(&[10, 11, 10, 12]));
        assert_eq!(live.state_items(), 3);

        let cp = live.export_state();
        let mut replica = spec.build_with_state(&cp).unwrap();
        assert_eq!(replica.state_items(), 3);

        // The replica keeps counting where the original left off.
        replica.run_batch(batch(&[10]));
        let again = replica.export_state();
        assert_ne!(again.root, cp.root);
        assert_eq!(replica.state_items(), 3);
    }

    #[test]
    fn restore_rejects_oversized_tables() {
        let big = PipelineSpec::new().stage(|| FlowTracker::new(64));
        let mut live = big.build();
        live.run_batch(batch(&[1, 2, 3, 4, 5]));
        let cp = live.export_state();

        let small = PipelineSpec::new().stage(|| FlowTracker::new(2));
        assert_eq!(
            small.build_with_state(&cp).unwrap_err(),
            SnapshotError::WrongLength {
                expected: 2,
                got: 5
            }
        );
    }

    #[test]
    fn a_wrong_hash_stamp_does_not_split_a_flow() {
        let mut t = FlowTracker::new(8);
        let mut stamped = pkt(7);
        stamped.set_cached_flow_hash(0xDEAD_BEEF);
        t.process(vec![pkt(7), stamped].into_iter().collect());
        assert_eq!(t.flow_count(), 1);
        assert_eq!(t.flow(&FiveTuple::of(&pkt(7)).unwrap()).unwrap().packets, 2);
    }

    #[test]
    fn index_grows_past_many_chunks() {
        let mut t = FlowTracker::new(3 * CHUNK + 5);
        for round in 0..2 {
            let ports: Vec<u16> = (0..(3 * CHUNK + 9) as u16).collect();
            t.process(batch(&ports));
            assert_eq!(t.flow_count(), 3 * CHUNK + 5);
            assert_eq!(t.overflow(), 4 * (round + 1));
        }
        let flows: Vec<_> = t.flows().collect();
        assert!(flows.windows(2).all(|w| w[0].0 < w[1].0), "tuple order");
        assert!(flows.iter().all(|(_, e)| e.packets == 2));
    }

    #[test]
    fn one_lanes_flows_spread_over_the_whole_index() {
        use crate::pktgen::{PacketGen, TrafficConfig};

        // Lane 3 of 4 owns the flows with `stable_hash() % 4 == 3`.
        let config = TrafficConfig {
            flows: 1 << 14,
            payload_len: 0,
            ..TrafficConfig::default()
        };
        let mut lane = PacketGen::rss_slice(config, 3, 4);
        let mut t = FlowTracker::new(usize::MAX);
        for _ in 0..64 {
            t.process(lane.next_batch(64));
        }
        let table = &t.flows;
        let mask = table.index.len() - 1;
        let (mut homes, mut displaced) = ([0usize; 4], 0);
        for n in 0..table.len as u32 {
            let tuple = &table.entry(n).0;
            let home = table.home(tuple);
            homes[home % 4] += 1;
            displaced += table.probe(tuple).wrapping_sub(home) & mask;
        }
        assert!(
            homes.iter().all(|&h| h > 0),
            "home slots by residue: {homes:?}"
        );
        // At most half full, linear probing moves an entry less than one
        // slot from home on average.
        assert!(
            displaced < table.len,
            "{displaced} slots of displacement over {} flows",
            table.len
        );
    }

    /// The tracker's previous table: a `BTreeMap` with the same admission
    /// rule. The reference model for the differential test.
    struct ModelTracker {
        flows: BTreeMap<FiveTuple, FlowEntry>,
        capacity: usize,
        overflow: u64,
        untracked: u64,
    }

    impl ModelTracker {
        fn new(capacity: usize) -> Self {
            Self {
                flows: BTreeMap::new(),
                capacity: capacity.max(1),
                overflow: 0,
                untracked: 0,
            }
        }
    }

    impl Operator for ModelTracker {
        fn process(&mut self, batch: PacketBatch) -> PacketBatch {
            for packet in batch.iter() {
                let Ok(tuple) = FiveTuple::of(packet) else {
                    self.untracked += 1;
                    continue;
                };
                if let Some(entry) = self.flows.get_mut(&tuple) {
                    entry.packets += 1;
                    entry.bytes += packet.len() as u64;
                } else if self.flows.len() < self.capacity {
                    let bytes = packet.len() as u64;
                    self.flows.insert(tuple, FlowEntry { packets: 1, bytes });
                } else {
                    self.overflow += 1;
                }
            }
            batch
        }

        fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
            Some(self.flows.checkpoint(ctx))
        }

        fn restore_state(
            &mut self,
            snap: &Snapshot,
            ctx: &mut RestoreCtx<'_>,
        ) -> Result<(), SnapshotError> {
            let flows = BTreeMap::restore(snap, ctx)?;
            if flows.len() > self.capacity {
                return Err(SnapshotError::WrongLength {
                    expected: self.capacity,
                    got: flows.len(),
                });
            }
            self.flows = flows;
            Ok(())
        }

        fn state_items(&self) -> u64 {
            self.flows.len() as u64
        }
    }

    /// An operator shared with the test, so its counters stay readable
    /// while a pipeline owns it.
    struct Shared<T>(Arc<Mutex<T>>);

    impl<T: Operator> Operator for Shared<T> {
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

        fn state_items(&self) -> u64 {
            self.0.lock().unwrap().state_items()
        }
    }

    /// The operator a spec's factory built last.
    type Latest<T> = Arc<Mutex<Option<Arc<Mutex<T>>>>>;

    /// A one-stage spec over `make`, and a handle on its latest build.
    fn observed<T: Operator + Send + 'static>(
        make: impl Fn() -> T + Send + Sync + 'static,
    ) -> (PipelineSpec, Latest<T>) {
        let latest: Latest<T> = Arc::new(Mutex::new(None));
        let slot = latest.clone();
        let spec = PipelineSpec::new().stage(move || {
            let op = Arc::new(Mutex::new(make()));
            *slot.lock().unwrap() = Some(op.clone());
            Shared(op)
        });
        (spec, latest)
    }

    fn latest<T>(handle: &Latest<T>) -> Arc<Mutex<T>> {
        handle.lock().unwrap().clone().expect("spec built")
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Packets as (flow, transport, payload length); transport 0 is
        /// UDP, 1 TCP, 2 ICMP.
        Batch(Vec<(u16, u8, u8)>),
        /// `export_state` then `build_with_state`.
        RoundTrip,
    }

    fn flow_packet(flow: u16, transport: u8, len: u8) -> Packet {
        let src = Ipv4Addr::new(10, 0, (flow % 3) as u8, 1);
        let dst = Ipv4Addr::new(10, 9, 0, 2);
        let sport = 1000 + flow / 3;
        let len = usize::from(len);
        match transport {
            1 => Packet::build_tcp(
                MacAddr::ZERO,
                MacAddr::ZERO,
                src,
                dst,
                sport,
                443,
                crate::headers::tcp::TcpFlags(0),
                len,
            ),
            t => {
                let mut p =
                    Packet::build_udp(MacAddr::ZERO, MacAddr::ZERO, src, dst, sport, 53, len);
                if t == 2 {
                    p.ipv4_mut().unwrap().set_protocol(IpProto::Icmp);
                }
                p
            }
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => proptest::collection::vec((0..12u16, 0..3u8, 0..48u8), 0..24).prop_map(Step::Batch),
            1 => Just(Step::RoundTrip),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn tracker_matches_the_btreemap_model(
            capacity in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(8), Just(64)],
            steps in proptest::collection::vec(step(), 1..16),
        ) {
            let (spec, real) = observed(move || FlowTracker::new(capacity));
            let (model_spec, model) = observed(move || ModelTracker::new(capacity));
            let mut live = spec.build();
            let mut model_live = model_spec.build();
            for step in steps {
                match step {
                    Step::Batch(packets) => {
                        let batch = || -> PacketBatch {
                            packets.iter().map(|&(f, t, l)| flow_packet(f, t, l)).collect()
                        };
                        prop_assert_eq!(live.run_batch(batch()).len(), packets.len());
                        model_live.run_batch(batch());
                    }
                    Step::RoundTrip => {
                        let cp = live.export_state();
                        let model_cp = model_live.export_state();
                        prop_assert_eq!(
                            rbs_checkpoint::encode(&cp),
                            rbs_checkpoint::encode(&model_cp)
                        );
                        // A tracker one flow smaller accepts or refuses
                        // the state exactly as the model does.
                        let smaller = capacity.saturating_sub(1).max(1);
                        let squeezed = PipelineSpec::new()
                            .stage(move || FlowTracker::new(smaller))
                            .build_with_state(&cp)
                            .map(|p| p.state_items());
                        let model_squeezed = PipelineSpec::new()
                            .stage(move || ModelTracker::new(smaller))
                            .build_with_state(&model_cp)
                            .map(|p| p.state_items());
                        prop_assert_eq!(squeezed, model_squeezed);
                        live = spec.build_with_state(&cp).unwrap();
                        model_live = model_spec.build_with_state(&model_cp).unwrap();
                    }
                }
                prop_assert_eq!(live.state_items(), model_live.state_items());
                let (t, m) = (latest(&real), latest(&model));
                let (t, m) = (t.lock().unwrap(), m.lock().unwrap());
                let flows: Vec<_> = t.flows().map(|(k, v)| (*k, *v)).collect();
                let model_flows: Vec<_> = m.flows.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(flows, model_flows);
                for (flow, transport) in (0..12).flat_map(|f| [(f, 0), (f, 1)]) {
                    let tuple = FiveTuple::of(&flow_packet(flow, transport, 0)).unwrap();
                    prop_assert_eq!(t.flow(&tuple), m.flows.get(&tuple));
                }
                prop_assert_eq!(t.overflow(), m.overflow);
                prop_assert_eq!(t.untracked(), m.untracked);
                prop_assert_eq!(t.state_items(), m.state_items());
            }
            prop_assert_eq!(
                rbs_checkpoint::encode(&live.export_state()),
                rbs_checkpoint::encode(&model_live.export_state())
            );
        }
    }
}
