//! Codec golden fingerprints: every mechanism's encoder → decoder pair runs
//! over a seeded benchmark corpus, with dictionary notifications routed back
//! to the encoder and the encoder retargeted 10% → 5% → 10% → 20% over the
//! corpus. An FNV-1a over every emitted `WordCode`, every decoded word and
//! every `(node, Notification)` must equal the recorded constant, so a
//! rewrite of a codec hot path has to reproduce the codec's output bit for
//! bit. This is the codec counterpart of `anoc-noc`'s
//! `kernel_refactor_is_behavior_preserving`.
//!
//! The dictionary codecs get a second, multi-node cell: several encoders
//! share each decoder and each encoder feeds several decoders, so the
//! per-destination encoder rows and the per-source decoder valid bits are
//! all exercised, and the stream is snapshotted mid-run and continued on
//! restored codecs.

use approx_noc::core::codec::{Notification, WordCode};
use approx_noc::core::data::{DataType, NodeId};
use approx_noc::core::rng::Pcg32;
use approx_noc::core::snap::{SnapReader, SnapWriter};
use approx_noc::core::threshold::ErrorThreshold;
use approx_noc::harness::Mechanism;
use approx_noc::traffic::{Benchmark, DataModel};

/// Encoder threshold of each quarter of a corpus, percent.
const SCHEDULE: [u32; 4] = [10, 5, 10, 20];

/// Blocks per benchmark corpus.
const BLOCKS: usize = 2048;

/// Share of blocks annotated approximable.
const APPROX_RATIO: f64 = 0.75;

const SEED: u64 = 42;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn code(&mut self, code: &WordCode) {
        match *code {
            WordCode::Raw { word, prefix_bits } => {
                self.u8(0);
                self.u32(word);
                self.u8(prefix_bits);
            }
            WordCode::Pattern {
                index,
                adjunct,
                adjunct_bits,
                approx,
            } => {
                self.u8(1);
                self.u8(index);
                self.u32(adjunct);
                self.u8(adjunct_bits);
                self.u8(u8::from(approx));
            }
            WordCode::ZeroRun { len } => {
                self.u8(2);
                self.u8(len);
            }
            WordCode::Delta {
                delta,
                delta_bits,
                approx,
            } => {
                self.u8(3);
                self.bytes(&delta.to_le_bytes());
                self.u8(delta_bits);
                self.u8(u8::from(approx));
            }
            WordCode::Match {
                distance,
                len,
                dist_bits,
                approx,
            } => {
                self.u8(4);
                self.bytes(&distance.to_le_bytes());
                self.u8(len);
                self.u8(dist_bits);
                self.u8(u8::from(approx));
            }
            WordCode::Dict {
                index,
                index_bits,
                approx,
                pattern,
            } => {
                self.u8(5);
                self.u8(index);
                self.u8(index_bits);
                self.u8(u8::from(approx));
                self.u32(pattern);
            }
        }
    }

    fn note(&mut self, to: NodeId, note: &Notification) {
        self.bytes(&(to.index() as u64).to_le_bytes());
        match *note {
            Notification::Install {
                pattern,
                index,
                dtype,
            } => {
                self.u8(0);
                self.u32(pattern);
                self.u8(index);
                self.u8(u8::from(dtype == DataType::F32));
            }
            Notification::Invalidate { pattern } => {
                self.u8(1);
                self.u32(pattern);
            }
        }
    }
}

fn threshold(percent: u32) -> ErrorThreshold {
    ErrorThreshold::from_percent(percent).unwrap()
}

/// Runs `mechanism` over an X264 and a Blackscholes corpus (integer- and
/// float-dominated) and returns the fingerprint of everything it emitted.
fn fingerprint(mechanism: Mechanism) -> u64 {
    two_node_stream(mechanism).0
}

/// Runs the two-node stream of [`fingerprint`] and returns the fingerprint
/// of its output, then one over every `CodecActivity` counter of both
/// nodes' encoders and decoders at the end of each corpus.
fn two_node_stream(mechanism: Mechanism) -> (u64, u64) {
    let (src, dst) = (NodeId(0), NodeId(1));
    let quarter = BLOCKS / SCHEDULE.len();
    let mut fnv = Fnv::new();
    let mut activity = Fnv::new();
    for (stream, benchmark) in [Benchmark::X264, Benchmark::Blackscholes]
        .into_iter()
        .enumerate()
    {
        let mut model = DataModel::new(benchmark, SEED);
        let mut flags = Pcg32::new(SEED, stream as u64);
        let mut codecs = mechanism.codecs(2, threshold(SCHEDULE[0]));
        for i in 0..BLOCKS {
            if i > 0 && i % quarter == 0 {
                let t = threshold(SCHEDULE[i / quarter]);
                codecs[src.index()].encoder.set_error_threshold(t);
            }
            let block = model.next_block(flags.chance(APPROX_RATIO));
            let encoded = codecs[src.index()].encoder.encode(&block, dst);
            encoded.codes().iter().for_each(|c| fnv.code(c));
            let decoded = codecs[dst.index()].decoder.decode(&encoded, src);
            decoded.block.words().iter().for_each(|&w| fnv.u32(w));
            for (to, note) in decoded.notifications {
                fnv.note(to, &note);
                codecs[to.index()].encoder.apply_notification(dst, note);
            }
        }
        for c in &codecs {
            for counters in [c.encoder.activity(), c.decoder.activity()].map(|a| a.counters()) {
                counters
                    .iter()
                    .for_each(|n| activity.bytes(&n.to_le_bytes()));
            }
        }
    }
    (fnv.0, activity.0)
}

/// Fingerprints recorded before the codec hot paths were lowered to
/// branch-free, allocation-free form. DI-VAXX's was re-recorded when its TCAM
/// keys regained their full don't-care width.
const GOLDEN: [(Mechanism, u64); 6] = [
    (Mechanism::Baseline, 0x4bec_d97e_2ea5_65e1),
    (Mechanism::DiComp, 0xb968_b477_1ff0_a535),
    (Mechanism::DiVaxx, 0x0be6_59ef_0bd1_2af3),
    (Mechanism::FpComp, 0x0805_32b2_fe22_11c1),
    (Mechanism::FpVaxx, 0x85c5_189e_79ee_9597),
    (Mechanism::LzVaxx, 0xe520_cb8a_4d48_1d1f),
];

#[test]
fn codec_outputs_match_golden_fingerprints() {
    let hex = |m: Mechanism, h: u64| (m.name(), format!("{h:016x}"));
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(m, _)| hex(m, fingerprint(m)))
        .collect();
    let want: Vec<_> = GOLDEN.iter().map(|&(m, h)| hex(m, h)).collect();
    assert_eq!(got, want);
}

/// Activity fingerprints of the two-node stream, recorded before the codec
/// hot paths were rewritten as whole-line kernels. The counters feed the
/// dynamic power model (Figure 15), so a rewrite that moves where a search,
/// an AVCL activation or a table write is counted must still count each one.
const ACTIVITY_GOLDEN: [(Mechanism, u64); 6] = [
    (Mechanism::Baseline, 0xdded_d579_bea7_6625),
    (Mechanism::DiComp, 0x6e23_1478_1d81_7cdf),
    (Mechanism::DiVaxx, 0x5381_9062_b181_ff17),
    (Mechanism::FpComp, 0xac97_a3e7_6e6a_f525),
    (Mechanism::FpVaxx, 0xeb25_692b_da62_083b),
    (Mechanism::LzVaxx, 0x4633_efcc_08b3_c3d9),
];

#[test]
fn codec_activity_matches_golden_fingerprints() {
    let hex = |m: Mechanism, h: u64| (m.name(), format!("{h:016x}"));
    let got: Vec<_> = ACTIVITY_GOLDEN
        .iter()
        .map(|&(m, _)| hex(m, two_node_stream(m).1))
        .collect();
    let want: Vec<_> = ACTIVITY_GOLDEN.iter().map(|&(m, h)| hex(m, h)).collect();
    assert_eq!(got, want);
}

/// Nodes of the multi-node dictionary cell. Node 5 takes no part, so every
/// valid-bit vector and per-destination row is wider than the traffic.
const NODES: usize = 6;

/// Encoders that send in the multi-node cell.
const SOURCES: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

/// Decoders that receive in the multi-node cell.
const SINKS: [NodeId; 2] = [NodeId(3), NodeId(4)];

/// Blocks in the multi-node stream.
const MULTI_BLOCKS: usize = 6000;

/// The block before which every codec is snapshotted and replaced by a
/// freshly built twin restored from the snapshot.
const SPLIT: usize = 3333;

/// The dictionaries' frequency-decay interval, in words
/// (`DiConfig::for_nodes`).
const DECAY_INTERVAL: u64 = 4096;

/// Runs a dictionary `mechanism` over six nodes: sources 0–2 send an
/// interleaved, seeded mix of X264 and Blackscholes blocks to decoders 3–4,
/// every source encoder is retargeted 10% → 5% → 10% → 20%, and at block
/// [`SPLIT`] every codec's snapshot is hashed and the stream continues on
/// restored codecs. Returns the fingerprint of every code, decoded word,
/// notification and snapshot byte.
fn multi_node_fingerprint(mechanism: Mechanism) -> u64 {
    let quarter = MULTI_BLOCKS / SCHEDULE.len();
    let mut fnv = Fnv::new();
    let mut models = [
        DataModel::new(Benchmark::X264, SEED),
        DataModel::new(Benchmark::Blackscholes, SEED),
    ];
    let mut pick = Pcg32::new(SEED, 6);
    let mut codecs = mechanism.codecs(NODES, threshold(SCHEDULE[0]));
    let mut words = [0u64; NODES * 2]; // encoder words, then decoder words
    let mut widest_invalidate = 0;
    for i in 0..MULTI_BLOCKS {
        let t = threshold(SCHEDULE[i / quarter]);
        if i > 0 && i % quarter == 0 {
            for s in SOURCES {
                codecs[s.index()].encoder.set_error_threshold(t);
            }
        }
        if i == SPLIT {
            let active = SOURCES.map(|s| words[s.index()]);
            let sinks = SINKS.map(|s| words[NODES + s.index()]);
            for n in active.into_iter().chain(sinks) {
                assert!(
                    n % DECAY_INTERVAL != 0,
                    "a codec restores on a decay boundary"
                );
            }
            let mut w = SnapWriter::new();
            for c in &codecs {
                c.encoder.save_state(&mut w);
                c.decoder.save_state(&mut w);
            }
            let bytes = w.into_bytes();
            fnv.bytes(&bytes);
            let mut restored = mechanism.codecs(NODES, t);
            let mut r = SnapReader::new(&bytes);
            for c in &mut restored {
                c.encoder.load_state(&mut r).expect("encoder restores");
                c.decoder.load_state(&mut r).expect("decoder restores");
            }
            assert!(r.is_exhausted());
            codecs = restored;
        }
        let src = SOURCES[pick.below(SOURCES.len() as u32) as usize];
        let dst = SINKS[pick.below(SINKS.len() as u32) as usize];
        let model = &mut models[pick.below(2) as usize];
        let block = model.next_block(pick.chance(APPROX_RATIO));
        words[src.index()] += block.len() as u64;
        words[NODES + dst.index()] += block.len() as u64;
        let encoded = codecs[src.index()].encoder.encode(&block, dst);
        encoded.codes().iter().for_each(|c| fnv.code(c));
        let decoded = codecs[dst.index()].decoder.decode(&encoded, src);
        decoded.block.words().iter().for_each(|&w| fnv.u32(w));
        let invalidated = decoded
            .notifications
            .iter()
            .filter(|(_, n)| matches!(n, Notification::Invalidate { .. }))
            .count();
        widest_invalidate = widest_invalidate.max(invalidated);
        for (to, note) in decoded.notifications {
            fnv.note(to, &note);
            codecs[to.index()].encoder.apply_notification(dst, note);
        }
    }
    assert!(
        widest_invalidate >= 2,
        "an eviction must invalidate several encoders"
    );
    for s in SINKS {
        assert!(
            words[NODES + s.index()] > 2 * DECAY_INTERVAL,
            "decoder {s:?} must decay"
        );
    }
    fnv.0
}

/// Multi-node fingerprints recorded before the dictionary tables were
/// rebuilt as flat arrays; DI-VAXX's re-recorded with full-width TCAM keys.
const MULTI_GOLDEN: [(Mechanism, u64); 2] = [
    (Mechanism::DiComp, 0xd043_8aef_bea9_23dd),
    (Mechanism::DiVaxx, 0xd810_b8f9_ba37_fc5e),
];

#[test]
fn multi_node_dictionary_cells_match_golden() {
    let hex = |m: Mechanism, h: u64| (m.name(), format!("{h:016x}"));
    let got: Vec<_> = MULTI_GOLDEN
        .iter()
        .map(|&(m, _)| hex(m, multi_node_fingerprint(m)))
        .collect();
    let want: Vec<_> = MULTI_GOLDEN.iter().map(|&(m, h)| hex(m, h)).collect();
    assert_eq!(got, want);
}
