//! Codec golden fingerprints: every mechanism's encoder → decoder pair runs
//! over a seeded benchmark corpus, with dictionary notifications routed back
//! to the encoder and the encoder retargeted 10% → 5% → 10% → 20% over the
//! corpus. An FNV-1a over every emitted `WordCode`, every decoded word and
//! every `(node, Notification)` must equal the recorded constant, so a
//! rewrite of a codec hot path has to reproduce the codec's output bit for
//! bit. This is the codec counterpart of `anoc-noc`'s
//! `kernel_refactor_is_behavior_preserving`.

use approx_noc::core::codec::{Notification, WordCode};
use approx_noc::core::data::{DataType, NodeId};
use approx_noc::core::rng::Pcg32;
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
    let (src, dst) = (NodeId(0), NodeId(1));
    let quarter = BLOCKS / SCHEDULE.len();
    let mut fnv = Fnv::new();
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
    }
    fnv.0
}

/// Fingerprints recorded before the codec hot paths were lowered to
/// branch-free, allocation-free form.
const GOLDEN: [(Mechanism, u64); 6] = [
    (Mechanism::Baseline, 0x4bec_d97e_2ea5_65e1),
    (Mechanism::DiComp, 0xb968_b477_1ff0_a535),
    (Mechanism::DiVaxx, 0x7d5c_7482_f4c8_9312),
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
