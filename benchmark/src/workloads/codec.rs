//! `codec-stream`: each benchmark's data model generates a corpus of cache
//! blocks, 75% of them approximable from a seeded stream, and every
//! mechanism's encoder (node 0) → decoder (node 1) pair runs over it with
//! dictionary notifications routed back to the encoder. Every quarter of the
//! corpus the encoder is retargeted (10% → 5% → 10% → 20%), so the threshold
//! write path — the TCAM mask rewrite — runs beside encode. The codec layer
//! does all of the work and the kernel none: the counterpart of `cmesh8-ur`.
//!
//! Every delivered word is checked after the timed pass: inside the AVCL
//! bound (`Avcl::accepts(precise, delivered, dtype)`) for an approximable
//! block under a VAXX mechanism, bit-exact otherwise.

use std::time::Instant;

use anoc_core::avcl::Avcl;
use anoc_core::codec::{EncodeStats, EncodedBlock};
use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_harness::Mechanism;
use anoc_noc::NodeCodec;
use anoc_traffic::{Benchmark, DataModel};

use super::{Bench, Checks, Fnv, Options, Repeat, Traced};
use crate::trace::{mech_slug, ratio, Call, Off, Probe, SpanKind, Tracer, MECHS};

/// Encoder threshold of each quarter of a corpus, percent.
const SCHEDULE: [u32; 4] = [10, 5, 10, 20];
/// Share of blocks annotated approximable.
const APPROX_RATIO: f64 = 0.75;

fn threshold(percent: u32) -> ErrorThreshold {
    ErrorThreshold::from_percent(percent).expect("schedule percentages are valid")
}

pub(crate) struct CodecStream {
    corpora: Vec<Vec<CacheBlock>>,
    /// Encoded and decoded blocks of the chunk being checked.
    out: Vec<(EncodedBlock, CacheBlock)>,
    /// The warm-up repeat's fingerprint, which traced passes must match.
    reference: u64,
}

/// Blocks timed between two checks. Checking a chunk at a time keeps the
/// kept outputs small enough to stay in cache, so the codec timings do not
/// depend on how much output a pass has piled up.
const CHUNK: usize = 500;

/// The schedule step block `i` of an `n`-block corpus is encoded under.
fn step(i: usize, n: usize) -> usize {
    (i / (n / SCHEDULE.len()).max(1)).min(SCHEDULE.len() - 1)
}

/// Pushes blocks `start..start + chunk.len()` of an `n`-block corpus
/// through the codec pair, keeping each encoded and decoded block.
fn stream<P: Probe>(
    probe: &mut P,
    codecs: &mut [NodeCodec],
    mi: usize,
    chunk: &[CacheBlock],
    start: usize,
    n: usize,
    out: &mut Vec<(EncodedBlock, CacheBlock)>,
) {
    let (src, dst) = (NodeId(0), NodeId(1));
    probe.open(SpanKind::Pass);
    for (i, block) in (start..).zip(chunk) {
        if i > 0 && step(i, n) != step(i - 1, n) {
            let t = threshold(SCHEDULE[step(i, n)]);
            codecs[src.index()].encoder.set_error_threshold(t);
            probe.lap(Call::Retarget);
        }
        let encoded = codecs[src.index()].encoder.encode(block, dst);
        probe.lap(Call::Encode(mi));
        let decoded = codecs[dst.index()].decoder.decode(&encoded, src);
        probe.lap(Call::Decode(mi));
        for (to, note) in decoded.notifications {
            codecs[to.index()].encoder.apply_notification(dst, note);
            probe.lap(Call::Notify(mi));
        }
        out.push((encoded, decoded.block));
        probe.mark();
    }
    probe.close();
}

/// Checks the deliveries of blocks `start..` of an `n`-block corpus and
/// folds them into the fingerprint and the encode statistics. Returns the
/// number of blocks delivered out of bound.
fn verify(
    m: Mechanism,
    precise: &[CacheBlock],
    start: usize,
    n: usize,
    out: &[(EncodedBlock, CacheBlock)],
    fnv: &mut Fnv,
    stats: &mut EncodeStats,
) -> u64 {
    let mut bad = u64::from(precise.len() != out.len());
    for (i, (precise, (encoded, delivered))) in (start..).zip(precise.iter().zip(out)) {
        stats.absorb_block(encoded);
        fnv.write(&encoded.payload_bits().to_le_bytes());
        delivered
            .words()
            .iter()
            .for_each(|w| fnv.write(&w.to_le_bytes()));
        let avcl = Avcl::new(threshold(SCHEDULE[step(i, n)]));
        let approx = m.is_vaxx() && precise.is_approximable();
        let dtype = precise.dtype();
        let in_bound = precise.len() == delivered.len()
            && precise
                .words()
                .iter()
                .zip(delivered.words())
                .all(|(&p, &d)| {
                    if approx {
                        avcl.accepts(p, d, dtype)
                    } else {
                        p == d
                    }
                });
        bad += u64::from(!in_bound);
    }
    bad
}

impl CodecStream {
    /// Runs every (corpus, mechanism) pass on a fresh codec pair; returns
    /// the timed seconds, the fingerprint and the per-mechanism encode
    /// statistics.
    fn passes<P: Probe>(
        &mut self,
        probe: &mut P,
        checks: &mut Checks,
    ) -> (f64, u64, Vec<EncodeStats>) {
        let mut secs = 0.0;
        let mut fnv = Fnv::default();
        let mut stats = vec![EncodeStats::default(); MECHS.len()];
        for blocks in &self.corpora {
            let n = blocks.len();
            for (mi, &m) in MECHS.iter().enumerate() {
                let mut codecs = m.codecs(2, threshold(SCHEDULE[0]));
                let mut bad = 0;
                for (c, chunk) in blocks.chunks(CHUNK).enumerate() {
                    self.out.clear();
                    let t = Instant::now();
                    stream(probe, &mut codecs, mi, chunk, c * CHUNK, n, &mut self.out);
                    secs += t.elapsed().as_secs_f64();
                    bad += verify(m, chunk, c * CHUNK, n, &self.out, &mut fnv, &mut stats[mi]);
                }
                checks.record(n as u64, bad, || {
                    format!("{bad} {m} block(s) delivered outside the AVCL bound")
                });
            }
        }
        (secs, fnv.finish(), stats)
    }

    fn blocks(&self) -> f64 {
        (self.corpora.iter().map(Vec::len).sum::<usize>() * MECHS.len()) as f64
    }
}

impl Bench for CodecStream {
    fn setup(opts: &Options) -> Result<Self, String> {
        let corpora = Benchmark::ALL[..opts.scale.benchmarks]
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut model = DataModel::new(b, opts.seed);
                let mut flags = Pcg32::new(opts.seed, 0x636f_6465_6300 + i as u64);
                (0..opts.scale.corpus_blocks)
                    .map(|_| model.next_block(flags.chance(APPROX_RATIO)))
                    .collect()
            })
            .collect();
        for m in MECHS {
            let codecs = m.codecs(2, threshold(SCHEDULE[0]));
            if codecs[0].encoder.name() != m.name() {
                return Err(format!("{m} builds a {} codec", codecs[0].encoder.name()));
            }
        }
        Ok(CodecStream {
            corpora,
            out: Vec::with_capacity(CHUNK),
            reference: 0,
        })
    }

    fn repeat(&mut self, _opts: &Options, first: bool) -> Result<Repeat, String> {
        let mut checks = Checks::default();
        let (wall_s, fingerprint, _) = self.passes(&mut Off, &mut checks);
        if first {
            self.reference = fingerprint;
        }
        Ok(Repeat {
            wall_s,
            ns_per_op: wall_s * 1e9 / self.blocks(),
            detail: Vec::new(),
            fingerprint,
            checks,
        })
    }

    fn traced(&mut self, _opts: &Options) -> Result<Traced, String> {
        let mut checks = Checks::default();
        let mut tracer = Tracer::new(Instant::now());
        let (wall_s, fingerprint, stats) = self.passes(&mut tracer, &mut checks);
        let blocks = self.blocks() as u64;
        let reference = self.reference;
        checks.record(0, u64::from(fingerprint != reference) * blocks, || {
            format!(
                "traced fingerprint {fingerprint:016x} differs from the untraced {reference:016x}"
            )
        });
        let mut total = EncodeStats::default();
        stats.iter().for_each(|s| total.merge(s));
        let mut values = vec![(
            "compression.ratio".to_string(),
            "ratio",
            total.compression_ratio(),
        )];
        let per_call = |c: Call| {
            let (count, ns) = tracer.call(c);
            ratio(ns as f64, count as f64)
        };
        for (mi, m) in MECHS.iter().enumerate() {
            let slug = mech_slug(*m);
            values.extend([
                (
                    format!("compression.{slug}.encode_ns"),
                    "ns",
                    per_call(Call::Encode(mi)),
                ),
                (
                    format!("compression.{slug}.decode_ns"),
                    "ns",
                    per_call(Call::Decode(mi)),
                ),
                (
                    format!("compression.{slug}.ratio"),
                    "ratio",
                    stats[mi].compression_ratio(),
                ),
                (
                    format!("compression.{slug}.approx_word_frac"),
                    "frac",
                    stats[mi].approx_fraction(),
                ),
            ]);
        }
        values.push((
            "compression.retarget_us".into(),
            "us",
            per_call(Call::Retarget) / 1e3,
        ));
        Ok(Traced {
            wall_s,
            tracer,
            values,
            checks,
        })
    }
}
