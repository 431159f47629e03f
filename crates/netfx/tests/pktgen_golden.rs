//! Golden packet streams: the generator's output is pinned byte for byte.
//!
//! Every experiment, BENCH record and benchmark workload draws its
//! traffic from `PacketGen`, so any change to how frames are synthesized
//! or flows are drawn must leave the emitted stream untouched. This test
//! digests the first 4096 frames (their bytes and their stamped flow
//! hashes) of every generator in a matrix of protocol × flow
//! distribution × payload length × constructor and compares the digests
//! with constants recorded from the reference implementation.

use rbs_netfx::flow::stable_hash_bytes;
use rbs_netfx::headers::ipv4::IpProto;
use rbs_netfx::{FlowDistribution, PacketGen, TrafficConfig};

const FRAMES: usize = 4096;
const FLOWS: usize = 4096;
const PAYLOADS: [usize; 5] = [0, 1, 18, 255, 256];

fn distributions() -> [(&'static str, FlowDistribution); 4] {
    [
        ("uniform", FlowDistribution::Uniform),
        ("zipf0.5", FlowDistribution::Zipf(0.5)),
        ("zipf1.2", FlowDistribution::Zipf(1.2)),
        ("zipf2.5", FlowDistribution::Zipf(2.5)),
    ]
}

/// Digest of the first [`FRAMES`] frames of `g`: each frame's byte hash
/// and stamped flow hash, folded into one value.
///
/// Every frame after the first is written into the previous frame's
/// buffer scribbled with `0xA5`, so a generator that left stale bytes
/// behind in a recycled buffer changes the digest.
fn stream_digest(g: &mut PacketGen) -> u64 {
    let mut acc = Vec::with_capacity(FRAMES * 16);
    let mut buf = bytes::BytesMut::new();
    for _ in 0..FRAMES {
        let p = g.next_packet_into(buf);
        let stamp = p
            .cached_flow_hash()
            .expect("generator stamps the flow hash");
        acc.extend_from_slice(&stable_hash_bytes(p.as_slice()).to_le_bytes());
        acc.extend_from_slice(&stamp.to_le_bytes());
        buf = p.into_bytes();
        buf.iter_mut().for_each(|b| *b = 0xA5);
    }
    stable_hash_bytes(&acc)
}

/// Digests for one (protocol, distribution, payload) cell, in the order
/// `new`, `rss_slice` over 2 lanes, `rss_slice` over 3 lanes, `subset`.
/// A multi-lane entry folds the per-lane digests in lane order.
fn cell_digests(cfg: &TrafficConfig) -> [u64; 4] {
    let lanes_digest = |lanes: usize| {
        let per_lane: Vec<u8> = (0..lanes)
            .flat_map(|lane| {
                let mut g = PacketGen::rss_slice(cfg.clone(), lane, lanes);
                stream_digest(&mut g).to_le_bytes()
            })
            .collect();
        stable_hash_bytes(&per_lane)
    };
    let mut subset = PacketGen::subset(cfg.clone(), 5, |t| t.src_port % 3 != 0);
    [
        stream_digest(&mut PacketGen::new(cfg.clone())),
        lanes_digest(2),
        lanes_digest(3),
        stream_digest(&mut subset),
    ]
}

/// `(protocol/distribution/payload, [new, rss2, rss3, subset])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("udp/uniform/0", [0x59894c0a01b13fec, 0x66c2128455576fa8, 0xbf2f14b2eb7b71b4, 0x043ebb10c452a710]),
    ("udp/uniform/1", [0x578864589c6d1425, 0x5108bccdda42bfbe, 0x3f9674a2b2e4248d, 0x1e091a374a2e30d0]),
    ("udp/uniform/18", [0xdbf60b81735b0229, 0x955f2b821a21bab6, 0x261d8b4ca50522e8, 0xfb687bc93452ec99]),
    ("udp/uniform/255", [0x2add19d5fe5aade4, 0xfcc4ee69917840a9, 0xa123bc485acc9974, 0xe08063778c3c6d7e]),
    ("udp/uniform/256", [0x644879de53a9ff4d, 0x47f7eb360d011309, 0x0af930d1c1fcb468, 0x6ff0fcf062cc09b5]),
    ("udp/zipf0.5/0", [0x807301811bb3f5b6, 0xeccf543d1292e36f, 0x4e9dc71de29e38d0, 0xc427be9185ac21eb]),
    ("udp/zipf0.5/1", [0x98b046b74d1c92ff, 0x8bcc9d3130facc35, 0xe5eda91c236f6531, 0xa6a04514b2626738]),
    ("udp/zipf0.5/18", [0xe34566d68cdeaae2, 0x4e0c406e6c16936c, 0x34b7aa55f90da1d3, 0xb1b12b8e18d1c0ce]),
    ("udp/zipf0.5/255", [0xc628a7750b156662, 0xee6712380c5bb8cc, 0xe52f3569e6a268d6, 0xd1085f52bac90bfc]),
    ("udp/zipf0.5/256", [0x4f2d81f5ea2fe8d5, 0x7bcabc9fdcff044f, 0x4d3154060e242bc3, 0xe34d4b11bc5c791d]),
    ("udp/zipf1.2/0", [0xe845ff5481780b4c, 0x24b91f4d5918673c, 0xdefb81984f01c854, 0xc0c9f925da63597d]),
    ("udp/zipf1.2/1", [0x6434c497bfb3c95b, 0xa4f51f677e041c6b, 0x90b8b091beb0332b, 0xe6565fb3a2edacee]),
    ("udp/zipf1.2/18", [0xfd1e2473880c872d, 0xbd6be18f8ac067f3, 0xd574de44110c4662, 0x1d75e120b2c4fd3b]),
    ("udp/zipf1.2/255", [0x3c0cd2fd56a14e72, 0x1445a680bec43d60, 0x1309c5d35f6ef93d, 0x30fbd291bbb1b9a0]),
    ("udp/zipf1.2/256", [0x78743f6842da436b, 0x26f11c313128e7e5, 0xeafbeaeb385c958b, 0xfc990130a5ec54a0]),
    ("udp/zipf2.5/0", [0x7fde3d22f1e09c19, 0x31341a295aba24cc, 0x1f6a9712f4067e1d, 0xcdcd3a9f4e85d472]),
    ("udp/zipf2.5/1", [0xed3d65814ec1b4eb, 0xb94d41ea3b38c58a, 0xc13a08f17e6765da, 0xc328d8bb96707d7c]),
    ("udp/zipf2.5/18", [0xdbaf2ec95fadf3f3, 0x62917b6da9f35a9b, 0x630d868403a5c0cc, 0xb0b07ed43af907ea]),
    ("udp/zipf2.5/255", [0x88a618752e623cf7, 0xe3863c597464df2f, 0x2c271038bdd254a0, 0xb45d09c2f529af53]),
    ("udp/zipf2.5/256", [0xac5cf30e09443a5f, 0x1e8548a49ef51e0c, 0xff26f22b7d1ac09c, 0xfbdce5f888310bca]),
    ("tcp/uniform/0", [0x87db8188b961a64d, 0x3a3dff3dd97d27e0, 0xb808574518ba65db, 0x63e882e8c5c2aa47]),
    ("tcp/uniform/1", [0x124c84da0fe24bb4, 0xe1f36ae5df080a1c, 0xb598e2dd2b479813, 0x89ef95a9cfb054cc]),
    ("tcp/uniform/18", [0x21fbd12884c1bb97, 0x55ad3ff802635e85, 0x3586c6f0e3fafc41, 0x58b9c18e10251fe0]),
    ("tcp/uniform/255", [0xa75c42ebcf26d4fb, 0xf668b82aa328ab6e, 0xff546dbe62c99fd6, 0xa898d2890bbefa89]),
    ("tcp/uniform/256", [0x8f6df5533dcd303e, 0x2347c94e4899843a, 0xbc2b0e0479f2c5be, 0xbee5f164e49ae93c]),
    ("tcp/zipf0.5/0", [0x7f9c73266e0848c5, 0xf136e0815c069839, 0x9c8e77ecd7609f8a, 0x0ca327e809ed1f8e]),
    ("tcp/zipf0.5/1", [0xeb12cc4ba79b95b7, 0xe46c281f187072c5, 0x8272c34080fe308d, 0xf76ae30df4deb216]),
    ("tcp/zipf0.5/18", [0x0ceeada2e1614fbe, 0xa8ab6175facc5220, 0x17c2dcf6c587fa39, 0xd582a6f469695432]),
    ("tcp/zipf0.5/255", [0x6e717d1c538c8a82, 0x7e8f38d9416161d9, 0x02f5b3c31074f341, 0xf2abac0f91ea7f75]),
    ("tcp/zipf0.5/256", [0xbe4775450ee066fa, 0x705bd0e67045eafa, 0xb2ac88135e794ef1, 0xc103f6b710901138]),
    ("tcp/zipf1.2/0", [0x83c0f2fe670bf0d1, 0x63fe27b610c5f47f, 0x175496428e5fc565, 0xa0ff62cdc8ef6c69]),
    ("tcp/zipf1.2/1", [0xe39875f0aeb130e6, 0xde3757c06a1e13a7, 0xde3807639a3e726c, 0x15a9f94ea28b2820]),
    ("tcp/zipf1.2/18", [0xa46032d7ddce88df, 0xff309ff3ca617ffc, 0xcfe01d13c27ef0df, 0x60c9037e0392ecc6]),
    ("tcp/zipf1.2/255", [0xb7b8b834a140f85c, 0x9a2278aeb03d8f08, 0xaf84331a416668e7, 0x8e33d0efaa6e5a59]),
    ("tcp/zipf1.2/256", [0x7845bca2d5856620, 0x22b5335ac5bf4412, 0xd5ccbccfb25a182a, 0xccd09cb04f16715e]),
    ("tcp/zipf2.5/0", [0xb551e56936c6f6b3, 0x3ecbc2db9c8e0c50, 0xf5af6e3b30c453d0, 0xa1a861f7dff3370e]),
    ("tcp/zipf2.5/1", [0xdbb27caf246dc3c0, 0x223ccc94ff4bea1c, 0x5890d1c8f3dadc45, 0x67d90a7143a7a0bf]),
    ("tcp/zipf2.5/18", [0x346cbfd72b622b15, 0x1f471f0bb08447e9, 0x3e7df0d90d0d4b80, 0xef2477bb74627af0]),
    ("tcp/zipf2.5/255", [0x165023cfd88dd1b6, 0x59aef6e96dfed779, 0x3e9d0abdd2d591ae, 0xd69f48c483863ae0]),
    ("tcp/zipf2.5/256", [0xdee5004b58132fa7, 0x9228c4560ad846f3, 0x050cf6f2c5bb3433, 0x3b1d35dccc9911a4]),
];

#[test]
fn generator_streams_match_golden_digests() {
    let mut computed = Vec::new();
    for (proto_name, proto) in [("udp", IpProto::Udp), ("tcp", IpProto::Tcp)] {
        for (dist_name, distribution) in distributions() {
            for payload_len in PAYLOADS {
                let cfg = TrafficConfig {
                    flows: FLOWS,
                    distribution,
                    proto,
                    payload_len,
                    seed: 0x601D_5EED,
                };
                let key = format!("{proto_name}/{dist_name}/{payload_len}");
                computed.push((key, cell_digests(&cfg)));
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(k, d)| {
            format!(
                "    (\"{k}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    let expected: Vec<(String, [u64; 4])> =
        GOLDEN.iter().map(|(k, d)| (k.to_string(), *d)).collect();
    assert!(
        computed == expected,
        "generator streams diverged from the golden digests; computed table:\n{table}"
    );
}
