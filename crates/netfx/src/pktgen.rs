//! Synthetic traffic generation — the DPDK stand-in.
//!
//! The paper's testbed pulls packets from DPDK in user-defined batch
//! sizes. This module generates equivalent batches in memory: a fixed
//! population of flows (5-tuples), a flow-popularity distribution
//! (uniform or Zipf, matching how load-balancer evaluations model
//! traffic), and configurable payload sizes. Generation is seeded and
//! fully deterministic so experiments are reproducible run-to-run.

use crate::batch::PacketBatch;
use crate::checksum::Checksum;
use crate::flow::FiveTuple;
use crate::headers::ethernet::MacAddr;
use crate::headers::ipv4::{self, IpProto, IPV4_MIN_HDR_LEN};
use crate::headers::tcp::{TcpFlags, TCP_MIN_HDR_LEN};
use crate::headers::udp::UDP_HDR_LEN;
use crate::headers::ETHERNET_HDR_LEN;
use crate::packet::Packet;
use crate::pool::PacketPool;
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Every generated flow targets `VIP:DST_PORT` (a TEST-NET-1 address).
const VIP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const DST_PORT: u16 = 80;
const SRC_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const DST_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

/// Frame offsets of the fields a [`FrameTemplate`] patches. The source
/// port is the first field of both the TCP and the UDP header.
const IP_OFF: usize = ETHERNET_HDR_LEN;
const IP_CSUM: usize = IP_OFF + 10;
const IP_SRC: usize = IP_OFF + 12;
const L4_OFF: usize = IP_OFF + IPV4_MIN_HDR_LEN;

/// How flow popularity is distributed across the flow population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowDistribution {
    /// Every flow equally likely.
    Uniform,
    /// Zipf with the given exponent (`s > 0`); `s ≈ 1` models typical
    /// heavy-tailed Internet traffic.
    Zipf(f64),
}

/// Traffic generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of distinct flows in the population.
    pub flows: usize,
    /// Flow-popularity distribution.
    pub distribution: FlowDistribution,
    /// Transport protocol for generated packets.
    pub proto: IpProto,
    /// UDP/TCP payload length in bytes.
    pub payload_len: usize,
    /// RNG seed; same seed ⇒ same packet stream.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            flows: 1024,
            distribution: FlowDistribution::Uniform,
            proto: IpProto::Udp,
            payload_len: 64,
            seed: 0xBEEF_CAFE,
        }
    }
}

/// A generator's frame with the two per-flow fields — source IP and
/// source port — left out, and the checksums over everything else.
///
/// It is cut from a frame built by the reference builder
/// ([`Packet::build_udp`] / [`Packet::build_tcp`]) for source
/// `0.0.0.0:0`, so it cannot drift from them. The payload is all zero
/// bytes, and a zero byte adds nothing to a one's-complement sum, so the
/// partial sums over the headers (and the pseudo-header) are the whole
/// sums once the source fields are added: a frame costs a header copy,
/// a zero fill and a few words of checksum arithmetic, whatever its
/// payload length.
#[derive(Debug)]
struct FrameTemplate {
    /// Ethernet, IPv4 and L4 headers; the source fields and both
    /// checksum fields are zero.
    header: Vec<u8>,
    /// Whole frame length (header plus zero payload).
    frame_len: usize,
    /// Wire protocol: TCP, or UDP for anything else.
    proto: IpProto,
    /// Frame offset of the L4 checksum field.
    l4_csum: usize,
    /// Sum over the IPv4 header, source address excluded.
    ip_sum: Checksum,
    /// Sum over the pseudo-header and the L4 header, source address and
    /// port excluded.
    l4_sum: Checksum,
}

impl FrameTemplate {
    fn new(proto: IpProto, payload_len: usize) -> Self {
        let none = Ipv4Addr::UNSPECIFIED;
        let reference = reference_frame(proto, none, 0, payload_len);
        let (l4_hdr_len, l4_csum) = match proto {
            IpProto::Tcp => (TCP_MIN_HDR_LEN, L4_OFF + 16),
            _ => (UDP_HDR_LEN, L4_OFF + 6),
        };
        let mut header = reference.as_slice()[..L4_OFF + l4_hdr_len].to_vec();
        header[IP_CSUM..IP_CSUM + 2].fill(0);
        header[l4_csum..l4_csum + 2].fill(0);
        let mut ip_sum = Checksum::new();
        ip_sum.push(&header[IP_OFF..L4_OFF]);
        let l4_len = u16::try_from(reference.len() - L4_OFF).expect("L4 length fits u16");
        let mut l4_sum = ipv4::pseudo_header_checksum(none, VIP, proto, l4_len);
        l4_sum.push(&header[L4_OFF..]);
        Self {
            header,
            frame_len: reference.len(),
            proto,
            l4_csum,
            ip_sum,
            l4_sum,
        }
    }

    /// Writes the frame from `src:sport` into `buf`; the bytes equal the
    /// reference builder's, and so does the allocation (one, and only if
    /// `buf` is too small).
    fn write(&self, mut buf: BytesMut, src: Ipv4Addr, sport: u16) -> Packet {
        buf.clear();
        buf.resize(self.frame_len, 0);
        buf[..self.header.len()].copy_from_slice(&self.header);
        let src = src.octets();
        buf[IP_SRC..IP_SRC + 4].copy_from_slice(&src);
        buf[L4_OFF..L4_OFF + 2].copy_from_slice(&sport.to_be_bytes());
        let mut ip_sum = self.ip_sum;
        ip_sum.push(&src);
        buf[IP_CSUM..IP_CSUM + 2].copy_from_slice(&ip_sum.finish().to_be_bytes());
        let mut l4_sum = self.l4_sum;
        l4_sum.push(&src);
        l4_sum.push_word(sport);
        let mut l4 = l4_sum.finish();
        if l4 == 0 && self.proto == IpProto::Udp {
            l4 = 0xFFFF; // RFC 768: zero means "no checksum"
        }
        buf[self.l4_csum..self.l4_csum + 2].copy_from_slice(&l4.to_be_bytes());
        Packet::from_bytes(buf)
    }
}

/// The frame the reference builder makes for flow `src:sport` — what
/// every generated frame must equal.
fn reference_frame(proto: IpProto, src: Ipv4Addr, sport: u16, payload_len: usize) -> Packet {
    match proto {
        IpProto::Tcp => Packet::build_tcp(
            SRC_MAC,
            DST_MAC,
            src,
            VIP,
            sport,
            DST_PORT,
            TcpFlags(TcpFlags::ACK),
            payload_len,
        ),
        _ => Packet::build_udp(SRC_MAC, DST_MAC, src, VIP, sport, DST_PORT, payload_len),
    }
}

/// The slice index a Zipf draw `u` lands on: the first index whose CDF
/// value reaches `u`, clamped to the last index — exactly
/// `cdf.partition_point(|&c| c < u).min(cdf.len() - 1)`.
///
/// Zipf draws cluster at the head of the CDF, so this gallops from the
/// head (probing indices 1, 3, 7, …) and binary-searches only inside the
/// bracket the probes find: O(log rank) instead of O(log flows).
///
/// `cdf` must be non-empty and non-decreasing.
fn zipf_index(cdf: &[f64], u: f64) -> usize {
    // Every index below `lo` holds a value below `u`.
    let mut lo = 0;
    let mut probe = 1;
    while probe < cdf.len() && cdf[probe] < u {
        lo = probe + 1;
        probe = 2 * probe + 1;
    }
    let hi = probe.min(cdf.len());
    (lo + cdf[lo..hi].partition_point(|&c| c < u)).min(cdf.len() - 1)
}

/// A deterministic synthetic packet source.
#[derive(Debug)]
pub struct PacketGen {
    config: TrafficConfig,
    rng: StdRng,
    /// Pre-materialized flow sources `(address, port)`, indexed by flow
    /// id; every flow targets `VIP:DST_PORT`.
    endpoints: Vec<(Ipv4Addr, u16)>,
    /// Cumulative probability table for Zipf sampling (empty for uniform).
    zipf_cdf: Vec<f64>,
    /// Flow ids this generator draws from. Equal to `0..flows` for a
    /// whole-mix generator; an RSS slice keeps only the flows whose
    /// stable hash lands on its lane.
    flow_ids: Vec<usize>,
    /// This generator's probability mass within the whole mix (1.0 for
    /// a whole-mix generator).
    share: f64,
    template: FrameTemplate,
    generated: u64,
}

impl PacketGen {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero or a Zipf exponent is not
    /// positive and finite.
    pub fn new(config: TrafficConfig) -> Self {
        Self::rss_slice(config, 0, 1)
    }

    /// Creates a generator for one RSS slice of `config`'s flow mix.
    ///
    /// The flow population, endpoints, and per-flow popularity weights
    /// are materialized identically on every lane (same seed ⇒ same
    /// flows everywhere); the slice then keeps exactly the flows whose
    /// [`FiveTuple::stable_hash`] lands on `lane` modulo `lanes` — the
    /// same mapping the dispatcher's `shard_for` uses — and
    /// renormalizes the popularity distribution over the kept flows.
    /// The union of all `lanes` slices is the whole mix, each flow on
    /// exactly one lane; [`share`](Self::share) reports the slice's
    /// probability mass so callers can split a packet budget
    /// proportionally.
    ///
    /// `rss_slice(config, 0, 1)` is byte-identical to
    /// [`new`](Self::new). For `lanes > 1` each lane draws from its own
    /// seeded stream (derived from `config.seed` and `lane`), so runs
    /// stay deterministic per lane.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero, `lane >= lanes`, or a Zipf
    /// exponent is not positive and finite. A slice that holds no flows
    /// (population smaller than the lane count) is valid with
    /// `share() == 0.0`; drawing from it panics.
    pub fn rss_slice(config: TrafficConfig, lane: usize, lanes: usize) -> Self {
        assert!(config.flows > 0, "flow population must be non-empty");
        assert!(lane < lanes, "lane {lane} out of range for {lanes} lanes");
        let (rng, endpoints) = Self::materialize_endpoints(&config);
        let proto = Self::wire_proto(&config);
        let flow_ids: Vec<usize> = (0..config.flows)
            .filter(|&i| {
                if lanes == 1 {
                    return true;
                }
                let tuple = Self::tuple_of(&endpoints, i, proto);
                (tuple.stable_hash() % lanes as u64) as usize == lane
            })
            .collect();
        let weights = Self::weights_for(&config);
        // For the whole mix the mass is exactly 1.0 by definition; pin
        // it so renormalization is arithmetic-identical to the
        // pre-slice generator (byte-stable streams stay byte-stable).
        let share: f64 = if lanes == 1 {
            1.0
        } else {
            flow_ids.iter().map(|&i| weights[i]).sum()
        };
        let rng = if lanes == 1 {
            // Whole-mix: keep drawing from the endpoint rng so the
            // stream is byte-identical to the pre-slice generator.
            rng
        } else {
            StdRng::seed_from_u64(
                config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1),
            )
        };
        Self::assemble(config, rng, endpoints, flow_ids, &weights, share)
    }

    /// Creates a generator restricted to the flows `keep` accepts — the
    /// targeted-traffic constructor (e.g. a flood aimed at exactly the
    /// flows a Maglev table steers to one backend).
    ///
    /// The flow population, endpoints, and popularity weights are
    /// materialized exactly as [`new`](Self::new) would (same seed ⇒
    /// same flows), then the kept subset is renormalized like an RSS
    /// slice. Draws come from an independent seeded stream derived from
    /// `config.seed` and `stream_salt`, so a subset generator never
    /// perturbs — and is never perturbed by — the whole-mix generator
    /// it was carved from.
    ///
    /// # Panics
    ///
    /// Panics if `config.flows` is zero or a Zipf exponent is invalid.
    /// A subset that keeps no flows is valid with `share() == 0.0`;
    /// drawing from it panics.
    pub fn subset(
        config: TrafficConfig,
        stream_salt: u64,
        keep: impl Fn(&FiveTuple) -> bool,
    ) -> Self {
        assert!(config.flows > 0, "flow population must be non-empty");
        let (_, endpoints) = Self::materialize_endpoints(&config);
        let proto = Self::wire_proto(&config);
        let flow_ids: Vec<usize> = (0..config.flows)
            .filter(|&i| keep(&Self::tuple_of(&endpoints, i, proto)))
            .collect();
        let weights = Self::weights_for(&config);
        let share: f64 = flow_ids.iter().map(|&i| weights[i]).sum();
        let rng = StdRng::seed_from_u64(
            config.seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(stream_salt.wrapping_add(1)),
        );
        Self::assemble(config, rng, endpoints, flow_ids, &weights, share)
    }

    /// Finishes a constructor: renormalizes the kept flows' weights into
    /// the Zipf CDF and cuts the frame template.
    fn assemble(
        config: TrafficConfig,
        rng: StdRng,
        endpoints: Vec<(Ipv4Addr, u16)>,
        flow_ids: Vec<usize>,
        weights: &[f64],
        share: f64,
    ) -> Self {
        let zipf_cdf = match config.distribution {
            FlowDistribution::Uniform => Vec::new(),
            FlowDistribution::Zipf(_) => {
                let mut cdf: Vec<f64> = Vec::with_capacity(flow_ids.len());
                let mut acc = 0.0;
                for &i in &flow_ids {
                    acc += weights[i] / share.max(f64::MIN_POSITIVE);
                    cdf.push(acc);
                }
                // Guard against floating-point shortfall at the end.
                if let Some(last) = cdf.last_mut() {
                    *last = 1.0;
                }
                cdf
            }
        };
        let template = FrameTemplate::new(Self::wire_proto(&config), config.payload_len);
        Self {
            config,
            rng,
            endpoints,
            zipf_cdf,
            flow_ids,
            share,
            template,
            generated: 0,
        }
    }

    /// Materializes the flow endpoints for `config` — identical for
    /// every constructor, so the same seed yields the same population
    /// no matter how the flows are then filtered. Returns the RNG in
    /// its post-materialization state (the whole-mix generator keeps
    /// drawing from it).
    fn materialize_endpoints(config: &TrafficConfig) -> (StdRng, Vec<(Ipv4Addr, u16)>) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let endpoints = (0..config.flows)
            .map(|i| {
                let src = Ipv4Addr::from(0x0A00_0000 | (i as u32 & 0x00FF_FFFF));
                (src, rng.gen_range(1024..=u16::MAX))
            })
            .collect();
        (rng, endpoints)
    }

    /// The transport protocol packets are actually built with.
    fn wire_proto(config: &TrafficConfig) -> IpProto {
        match config.proto {
            IpProto::Tcp => IpProto::Tcp,
            _ => IpProto::Udp,
        }
    }

    /// The five-tuple of flow `i`.
    fn tuple_of(endpoints: &[(Ipv4Addr, u16)], i: usize, proto: IpProto) -> FiveTuple {
        let (src, sport) = endpoints[i];
        FiveTuple {
            src_ip: src,
            dst_ip: VIP,
            src_port: sport,
            dst_port: DST_PORT,
            proto,
        }
    }

    /// Normalized popularity weights over the whole population.
    fn weights_for(config: &TrafficConfig) -> Vec<f64> {
        match config.distribution {
            FlowDistribution::Uniform => vec![1.0 / config.flows as f64; config.flows],
            FlowDistribution::Zipf(s) => {
                assert!(
                    s > 0.0 && s.is_finite(),
                    "Zipf exponent must be positive, got {s}"
                );
                let raw: Vec<f64> = (1..=config.flows)
                    .map(|rank| 1.0 / (rank as f64).powf(s))
                    .collect();
                let total: f64 = raw.iter().sum();
                raw.into_iter().map(|w| w / total).collect()
            }
        }
    }

    /// Draws the next flow id according to the configured distribution,
    /// restricted to this generator's slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (`share() == 0.0`).
    pub fn next_flow_id(&mut self) -> usize {
        assert!(!self.flow_ids.is_empty(), "drawing from an empty RSS slice");
        match self.config.distribution {
            FlowDistribution::Uniform => {
                let k = self.rng.gen_range(0..self.flow_ids.len());
                self.flow_ids[k]
            }
            FlowDistribution::Zipf(_) => {
                let u: f64 = self.rng.gen();
                self.flow_ids[zipf_index(&self.zipf_cdf, u)]
            }
        }
    }

    /// This generator's probability mass within the whole configured
    /// mix: 1.0 for a whole-mix generator, the renormalization factor
    /// for an RSS slice.
    pub fn share(&self) -> f64 {
        self.share
    }

    /// Number of flows in this generator's slice.
    pub fn flows_in_slice(&self) -> usize {
        self.flow_ids.len()
    }

    /// Generates one packet.
    pub fn next_packet(&mut self) -> Packet {
        self.next_packet_into(BytesMut::new())
    }

    /// Generates one packet into a caller-provided buffer (e.g. one
    /// drawn from a [`PacketPool`]).
    ///
    /// The frame bytes are identical to [`next_packet`](Self::next_packet)
    /// for the same generator state, and to what the reference builder
    /// ([`Packet::build_udp`] / [`Packet::build_tcp`]) makes for the drawn
    /// flow; only the buffer's provenance differs.
    /// The generator knows the flow endpoints it just wrote, so it stamps
    /// the flow hash on the packet for free — the dispatcher never has to
    /// re-parse the headers it already trusts.
    pub fn next_packet_into(&mut self, buf: BytesMut) -> Packet {
        let flow = self.next_flow_id();
        self.generated += 1;
        let tuple = Self::tuple_of(&self.endpoints, flow, self.template.proto);
        let mut packet = self.template.write(buf, tuple.src_ip, tuple.src_port);
        packet.set_cached_flow_hash(tuple.stable_hash());
        packet
    }

    /// Generates a batch of `n` packets.
    pub fn next_batch(&mut self, n: usize) -> PacketBatch {
        (0..n).map(|_| self.next_packet()).collect()
    }

    /// Generates a batch of `n` packets drawing every buffer — and the
    /// batch shell itself — from `pool`.
    ///
    /// With a prewarmed pool this is the allocation-free entry point to
    /// the data path: buffers cycle generator → pipeline → recycle
    /// channel → pool without the global allocator ever being consulted.
    pub fn next_batch_from_pool(&mut self, n: usize, pool: &mut PacketPool) -> PacketBatch {
        let mut batch = pool.take_shell(n);
        for _ in 0..n {
            let buf = pool.take();
            let packet = self.next_packet_into(buf);
            batch.push(packet);
        }
        batch
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn template_frames_equal_the_reference_builder() {
        for proto in [IpProto::Udp, IpProto::Tcp] {
            for payload_len in [0, 1, 2, 17, 18, 255, 256, 1400] {
                let mut g = PacketGen::new(TrafficConfig {
                    flows: 512,
                    proto,
                    payload_len,
                    ..Default::default()
                });
                // A recycled buffer holds stale bytes and may be longer
                // than the frame; none of that may leak through.
                let mut buf = BytesMut::from(&[0xA5u8; 2048][..]);
                for _ in 0..300 {
                    let p = g.next_packet_into(buf);
                    let t = FiveTuple::of(&p).unwrap();
                    let want = reference_frame(proto, t.src_ip, t.src_port, payload_len);
                    assert_eq!(p.as_slice(), want.as_slice(), "{proto:?}/{payload_len}");
                    buf = p.into_bytes();
                    buf.iter_mut().for_each(|b| *b = 0xA5);
                }
                // A fresh buffer is allocated once, at the reference's size.
                let p = g.next_packet();
                let t = FiveTuple::of(&p).unwrap();
                let want = reference_frame(proto, t.src_ip, t.src_port, payload_len);
                assert_eq!(p.into_bytes().capacity(), want.into_bytes().capacity());
            }
        }
    }

    #[test]
    fn template_checksums_match_on_every_source_port() {
        // Sweeping the source port walks the L4 sum through every value,
        // including the one that folds to zero, which UDP must send as
        // 0xFFFF and TCP sends as is.
        let src = Ipv4Addr::new(10, 1, 2, 3);
        for proto in [IpProto::Udp, IpProto::Tcp] {
            let template = FrameTemplate::new(proto, 1);
            let mut buf = BytesMut::new();
            for sport in 0..=u16::MAX {
                let p = template.write(buf, src, sport);
                let want = reference_frame(proto, src, sport, 1);
                assert_eq!(p.as_slice(), want.as_slice(), "{proto:?} port {sport}");
                buf = p.into_bytes();
            }
        }
    }

    /// A uniform draw from `[0, 1)` at full `f64` resolution.
    fn unit() -> impl Strategy<Value = f64> {
        (0..1u64 << 53).prop_map(|k| k as f64 / (1u64 << 53) as f64)
    }

    /// A non-decreasing CDF of 1..=40 entries (flat runs included),
    /// optionally pinned to end at exactly 1.0 as the generator's are.
    fn cdf() -> impl Strategy<Value = Vec<f64>> {
        (
            proptest::collection::vec(prop_oneof![Just(0.0), unit()], 1..40),
            any::<bool>(),
        )
            .prop_map(|(steps, pin_last)| {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = steps
                    .into_iter()
                    .map(|step| {
                        acc += step;
                        acc
                    })
                    .collect();
                if pin_last {
                    let total = acc.max(f64::MIN_POSITIVE);
                    cdf.iter_mut().for_each(|c| *c /= total);
                    *cdf.last_mut().unwrap() = 1.0;
                }
                cdf
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn galloping_draw_equals_full_partition_point(
            cdf in cdf(),
            pick in any::<usize>(),
            free in unit(),
            which in 0..4u8,
        ) {
            let u = match which {
                0 => 0.0,
                1 => cdf[pick % cdf.len()],
                2 => 1.0 - f64::EPSILON / 2.0, // the largest f64 below 1.0
                _ => free,
            };
            let want = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            prop_assert_eq!(zipf_index(&cdf, u), want);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrafficConfig::default();
        let mut a = PacketGen::new(cfg.clone());
        let mut b = PacketGen::new(cfg);
        for _ in 0..100 {
            assert_eq!(a.next_packet().as_slice(), b.next_packet().as_slice());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PacketGen::new(TrafficConfig {
            seed: 1,
            ..Default::default()
        });
        let mut b = PacketGen::new(TrafficConfig {
            seed: 2,
            ..Default::default()
        });
        let same = (0..50)
            .filter(|_| a.next_packet().as_slice() == b.next_packet().as_slice())
            .count();
        assert!(same < 50, "independent seeds produced identical streams");
    }

    #[test]
    fn batch_size_and_wellformedness() {
        let mut g = PacketGen::new(TrafficConfig::default());
        let batch = g.next_batch(32);
        assert_eq!(batch.len(), 32);
        assert_eq!(g.generated(), 32);
        for p in batch.iter() {
            assert!(p.ipv4().unwrap().checksum_ok());
            assert!(FiveTuple::of(p).is_ok());
        }
    }

    #[test]
    fn stamped_hash_matches_recomputation() {
        for proto in [IpProto::Udp, IpProto::Tcp] {
            let mut g = PacketGen::new(TrafficConfig {
                proto,
                ..Default::default()
            });
            for _ in 0..50 {
                let p = g.next_packet();
                let stamped = p.cached_flow_hash().expect("pktgen stamps the hash");
                assert_eq!(stamped, crate::flow::packet_flow_hash(&p));
            }
        }
    }

    #[test]
    fn pooled_batch_is_byte_identical_to_fresh() {
        let cfg = TrafficConfig::default();
        let mut fresh = PacketGen::new(cfg.clone());
        let mut pooled = PacketGen::new(cfg);
        let mut pool = crate::pool::PacketPool::new(256, 64);
        pool.prewarm(32);

        let a = fresh.next_batch(32);
        let b = pooled.next_batch_from_pool(32, &mut pool);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(pool.stats().hits, 32, "prewarmed pool serves every take");
        assert_eq!(pool.stats().misses, 0);

        // Recycle and regenerate: still identical, still no fresh slabs.
        let c = fresh.next_batch(32);
        pool.recycle_batch(b);
        let d = pooled.next_batch_from_pool(32, &mut pool);
        for (x, y) in c.iter().zip(d.iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn uniform_covers_flows() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 16,
            ..Default::default()
        });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(g.next_flow_id());
        }
        assert_eq!(seen.len(), 16, "uniform draw should hit every flow");
    }

    #[test]
    fn zipf_is_skewed_and_ranked() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 100,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        });
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next_flow_id()).or_default() += 1;
        }
        let c0 = counts.get(&0).copied().unwrap_or(0);
        let c9 = counts.get(&9).copied().unwrap_or(0);
        assert!(c0 > 4 * c9, "rank 0 ({c0}) should dwarf rank 9 ({c9})");
        // All sampled ids must be within the population.
        assert!(counts.keys().all(|&id| id < 100));
    }

    #[test]
    fn zipf_cdf_extreme_u_in_range() {
        let mut g = PacketGen::new(TrafficConfig {
            flows: 3,
            distribution: FlowDistribution::Zipf(0.5),
            ..Default::default()
        });
        for _ in 0..1000 {
            assert!(g.next_flow_id() < 3);
        }
    }

    #[test]
    fn tcp_traffic_generates_tcp() {
        let mut g = PacketGen::new(TrafficConfig {
            proto: IpProto::Tcp,
            payload_len: 10,
            ..Default::default()
        });
        let p = g.next_packet();
        assert!(p.tcp().is_ok());
        assert_eq!(FiveTuple::of(&p).unwrap().proto, IpProto::Tcp);
    }

    #[test]
    fn rss_slices_partition_the_population() {
        let cfg = TrafficConfig {
            flows: 512,
            ..Default::default()
        };
        let lanes = 4;
        let slices: Vec<_> = (0..lanes)
            .map(|l| PacketGen::rss_slice(cfg.clone(), l, lanes))
            .collect();
        let total: usize = slices.iter().map(|s| s.flows_in_slice()).sum();
        assert_eq!(total, 512, "every flow on exactly one lane");
        let share_sum: f64 = slices.iter().map(|s| s.share()).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1, got {share_sum}"
        );
        // Uniform mix: shares proportional to slice sizes.
        for s in &slices {
            let expect = s.flows_in_slice() as f64 / 512.0;
            assert!((s.share() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn rss_slice_draws_only_owned_flows() {
        let cfg = TrafficConfig {
            flows: 256,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let lanes = 3;
        for lane in 0..lanes {
            let mut g = PacketGen::rss_slice(cfg.clone(), lane, lanes);
            if g.flows_in_slice() == 0 {
                continue;
            }
            for _ in 0..500 {
                let p = g.next_packet();
                let tuple = FiveTuple::of(&p).unwrap();
                assert_eq!(
                    (tuple.stable_hash() % lanes as u64) as usize,
                    lane,
                    "slice generated a flow belonging to another lane"
                );
            }
        }
    }

    #[test]
    fn rss_slice_of_one_is_byte_identical_to_new() {
        for dist in [FlowDistribution::Uniform, FlowDistribution::Zipf(1.2)] {
            let cfg = TrafficConfig {
                flows: 128,
                distribution: dist,
                ..Default::default()
            };
            let mut a = PacketGen::new(cfg.clone());
            let mut b = PacketGen::rss_slice(cfg, 0, 1);
            for _ in 0..200 {
                assert_eq!(a.next_packet().as_slice(), b.next_packet().as_slice());
            }
        }
    }

    #[test]
    fn rss_slice_zipf_stays_skewed_within_slice() {
        let cfg = TrafficConfig {
            flows: 1000,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let mut g = PacketGen::rss_slice(cfg, 0, 2);
        let first = g.flows_in_slice();
        assert!(first > 0);
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.next_flow_id()).or_default() += 1;
        }
        // The slice's most popular kept flow should dominate its median
        // kept flow: renormalization preserves the skew.
        let max = counts.values().max().copied().unwrap_or(0);
        let avg = 20_000 / first.max(1) as u64;
        assert!(max > 3 * avg, "slice lost its skew: max {max}, avg {avg}");
    }

    #[test]
    fn subset_draws_only_kept_flows() {
        let cfg = TrafficConfig {
            flows: 256,
            ..Default::default()
        };
        let mut g = PacketGen::subset(cfg, 7, |t| t.stable_hash() % 3 == 0);
        assert!(g.flows_in_slice() > 0);
        for _ in 0..300 {
            let p = g.next_packet();
            let tuple = FiveTuple::of(&p).unwrap();
            assert_eq!(tuple.stable_hash() % 3, 0, "subset leaked a filtered flow");
        }
    }

    #[test]
    fn subset_population_matches_whole_mix() {
        // The subset must see the same endpoints the whole-mix generator
        // builds: a keep-everything subset covers exactly the same flows.
        let cfg = TrafficConfig {
            flows: 64,
            ..Default::default()
        };
        let mut whole = PacketGen::new(cfg.clone());
        let mut all = PacketGen::subset(cfg, 0, |_| true);
        assert_eq!(all.flows_in_slice(), 64);
        assert!((all.share() - 1.0).abs() < 1e-9);
        let mut whole_tuples = std::collections::HashSet::new();
        let mut subset_tuples = std::collections::HashSet::new();
        for _ in 0..2000 {
            whole_tuples.insert(FiveTuple::of(&whole.next_packet()).unwrap());
            subset_tuples.insert(FiveTuple::of(&all.next_packet()).unwrap());
        }
        assert_eq!(whole_tuples, subset_tuples);
    }

    #[test]
    fn subset_is_deterministic_per_salt() {
        let cfg = TrafficConfig {
            flows: 128,
            distribution: FlowDistribution::Zipf(1.2),
            ..Default::default()
        };
        let mut a = PacketGen::subset(cfg.clone(), 3, |t| t.src_port % 2 == 0);
        let mut b = PacketGen::subset(cfg.clone(), 3, |t| t.src_port % 2 == 0);
        let mut c = PacketGen::subset(cfg, 4, |t| t.src_port % 2 == 0);
        let mut diverged = false;
        for _ in 0..100 {
            let pa = a.next_packet();
            assert_eq!(pa.as_slice(), b.next_packet().as_slice());
            if pa.as_slice() != c.next_packet().as_slice() {
                diverged = true;
            }
        }
        assert!(diverged, "distinct salts must draw independent streams");
    }

    #[test]
    #[should_panic(expected = "empty RSS slice")]
    fn empty_slice_draw_panics() {
        // 1 flow over many lanes: most slices are empty.
        let cfg = TrafficConfig {
            flows: 1,
            ..Default::default()
        };
        let mut empty = None;
        for lane in 0..8 {
            let g = PacketGen::rss_slice(cfg.clone(), lane, 8);
            if g.flows_in_slice() == 0 {
                empty = Some(g);
                break;
            }
        }
        let mut g = empty.expect("seven of eight slices must be empty");
        assert_eq!(g.share(), 0.0);
        g.next_flow_id();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_flows_rejected() {
        PacketGen::new(TrafficConfig {
            flows: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "Zipf exponent")]
    fn bad_zipf_rejected() {
        PacketGen::new(TrafficConfig {
            distribution: FlowDistribution::Zipf(0.0),
            ..Default::default()
        });
    }
}
