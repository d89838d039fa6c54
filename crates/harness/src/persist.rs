//! Bit-exact text serialization of [`RunResult`] for the campaign cache.
//!
//! The format is line-oriented plain text (the cache stores text payloads)
//! and round-trips every field exactly: `f64`s are stored as the hex of
//! their IEEE-754 bits, and the latency histogram as sparse
//! `bucket:count` pairs. A decoded result is indistinguishable from the
//! freshly simulated one, which is what lets cached cells participate in
//! bit-identical figure regeneration.

use std::fmt::Write;

use anoc_core::codec::{CodecActivity, EncodeStats};
use anoc_core::metrics::QualityAccumulator;
use anoc_noc::router::RouterActivity;
use anoc_noc::{ActivityReport, FaultStats, LatencyHistogram, NetStats};

use crate::config::Mechanism;
use crate::runner::RunResult;

/// Magic first line of the payload; bump the version when the layout of
/// [`RunResult`] changes so stale cache entries turn into misses.
///
/// v4: the mechanism namespace grew (`LZ-VAXX`). Entries written by a v3
/// reader must be rejected, not misparsed, because a v3 binary cannot
/// reconstruct the new mechanism and a v4 binary must not trust cells keyed
/// under the old name rules.
///
/// v5: [`RunResult`] gained `drained` — whether the post-measurement drain
/// completed within budget. v4 entries predate the flag and cannot tell a
/// finished run from a truncated one, so they are rejected and resimulated.
///
/// v6: runs became staged (DESIGN.md §11) — codecs warm up at the exact
/// threshold and retarget at the measurement boundary, so the value-cache
/// contents entering the window (and with them the VAXX numbers) differ from
/// the single-loop methodology that produced v5 entries.
///
/// v7: the fault-counter block grew `words_lost` (lossy-link erasures,
/// DESIGN.md §12). A v6 payload's 7-field `faults` line cannot carry the new
/// counter, and a v7 reader must not guess it as zero for runs that may have
/// predated the loss model's bound-check gating change — so v6 entries are
/// rejected and resimulated.
///
/// v8: DI-VAXX TCAM keys keep their full APCL don't-care width; v7 cut them
/// to 16 bits, so every DI-VAXX cell a v7 build cached holds the capped
/// model's numbers.
const MAGIC: &str = "# anoc-result v8";

/// The payload version this build writes and accepts (the numeric suffix of
/// the payload's first line, `# anoc-result v8`); exposed so cache tooling
/// can report version mixes.
pub const RESULT_FORMAT_VERSION: u32 = 8;

/// Extracts the result-format version of a stored payload without decoding
/// it: `Some(3)` for a stale `# anoc-result v3` entry, `None` for payloads
/// that are not results at all. Lets `anoc cache stats` report how much of
/// the cache is usable by this build versus stale.
pub fn payload_version(payload: &str) -> Option<u32> {
    let first = payload.lines().next()?;
    let v = first.strip_prefix("# anoc-result v")?;
    v.parse().ok()
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn parse_u64s<const N: usize>(line: &str) -> Option<[u64; N]> {
    let mut out = [0u64; N];
    let mut fields = line.split_ascii_whitespace();
    for slot in &mut out {
        *slot = fields.next()?.parse().ok()?;
    }
    fields.next().is_none().then_some(out)
}

/// Appends the line `tag v1 v2 …` to `out`.
fn push_counters(out: &mut String, tag: &str, values: &[u64]) {
    out.push_str(tag);
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// Encodes a [`RunResult`] as the cache text payload. Each stats record's
/// counters fill one line in declaration order; the scalar counters of
/// [`NetStats`] make up the `stats` line.
pub fn encode_run_result(r: &RunResult) -> String {
    let s = &r.stats;
    let mut out = String::with_capacity(512);
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("mechanism {}\n", r.mechanism.name()));
    out.push_str(&format!("nodes {}\n", r.nodes));
    out.push_str(&format!("total_cycles {}\n", r.total_cycles));
    out.push_str(&format!("drained {}\n", r.drained));
    push_counters(&mut out, "stats", &s.counters());
    push_counters(&mut out, "encode", &s.encode.counters());
    out.push_str(&format!(
        "quality {} {} {}\n",
        s.quality.words(),
        f64_hex(s.quality.error_sum()),
        f64_hex(s.quality.max_relative_error()),
    ));
    push_counters(&mut out, "faults", &s.faults.counters());
    out.push_str(&format!("hist {}", s.latency_histogram.max()));
    for (b, c) in s.latency_histogram.nonzero_buckets() {
        out.push_str(&format!(" {b}:{c}"));
    }
    out.push('\n');
    let a = &r.activity;
    push_counters(&mut out, "routers", &a.routers.counters());
    push_counters(&mut out, "encoders", &a.encoders.counters());
    push_counters(&mut out, "decoders", &a.decoders.counters());
    out.push_str(&format!("activity_cycles {}\n", a.cycles));
    out
}

/// Decodes a payload written by [`encode_run_result`]. Any mismatch —
/// version bump, truncation, unknown mechanism — yields `None`, which the
/// campaign layer treats as a cache miss.
pub fn decode_run_result(payload: &str) -> Option<RunResult> {
    let mut lines = payload.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let mut field = |tag: &str| lines.next()?.strip_prefix(tag)?.strip_prefix(' ');
    let mechanism = Mechanism::from_name(field("mechanism")?)?;
    let nodes: usize = field("nodes")?.parse().ok()?;
    let total_cycles: u64 = field("total_cycles")?.parse().ok()?;
    let drained: bool = field("drained")?.parse().ok()?;
    let scalars = parse_u64s(field("stats")?)?;
    let encode = EncodeStats::from_counters(parse_u64s(field("encode")?)?);

    let mut q = field("quality")?.split_ascii_whitespace();
    let q_words: u64 = q.next()?.parse().ok()?;
    let q_sum = parse_f64_hex(q.next()?)?;
    let q_max = parse_f64_hex(q.next()?)?;
    let quality = QualityAccumulator::from_raw(q_words, q_sum, q_max);
    let faults = FaultStats::from_counters(parse_u64s(field("faults")?)?);

    let mut h = field("hist")?.split_ascii_whitespace();
    let h_max: u64 = h.next()?.parse().ok()?;
    let mut buckets = Vec::new();
    for pair in h {
        let (b, c) = pair.split_once(':')?;
        buckets.push((b.parse().ok()?, c.parse().ok()?));
    }
    let latency_histogram = LatencyHistogram::from_buckets(buckets, h_max)?;

    let activity = ActivityReport {
        routers: RouterActivity::from_counters(parse_u64s(field("routers")?)?),
        encoders: CodecActivity::from_counters(parse_u64s(field("encoders")?)?),
        decoders: CodecActivity::from_counters(parse_u64s(field("decoders")?)?),
        cycles: field("activity_cycles")?.parse().ok()?,
    };
    if lines.next().is_some() {
        return None;
    }
    Some(RunResult {
        mechanism,
        stats: NetStats {
            encode,
            quality,
            faults,
            latency_histogram,
            ..NetStats::from_counters(scalars)
        },
        activity,
        nodes,
        total_cycles,
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::runner::try_run_benchmark;
    use anoc_traffic::Benchmark;

    fn assert_roundtrip(r: &RunResult) {
        let text = encode_run_result(r);
        let back = decode_run_result(&text).expect("decode");
        assert_eq!(back.mechanism, r.mechanism);
        assert_eq!(back.nodes, r.nodes);
        assert_eq!(back.drained, r.drained);
        // Re-encoding the decoded value must be byte-identical: that is the
        // exactness property the cache relies on.
        assert_eq!(encode_run_result(&back), text);
        // Spot-check the derived metrics, bit for bit.
        assert_eq!(
            back.avg_packet_latency().to_bits(),
            r.avg_packet_latency().to_bits()
        );
        assert_eq!(back.data_quality().to_bits(), r.data_quality().to_bits());
        assert_eq!(back.latency_percentile(99.0), r.latency_percentile(99.0));
        assert_eq!(
            back.stats.normalized_data_flits().to_bits(),
            r.stats.normalized_data_flits().to_bits()
        );
    }

    #[test]
    fn roundtrip_is_bit_exact_for_real_runs() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        for m in crate::config::Mechanism::ALL {
            let r = try_run_benchmark(Benchmark::Ssca2, m, &cfg, 11).expect("run completes");
            assert_roundtrip(&r);
        }
    }

    #[test]
    fn roundtrip_handles_default_stats() {
        let r = RunResult {
            mechanism: Mechanism::LzVaxx,
            stats: NetStats::default(),
            activity: ActivityReport::default(),
            nodes: 0,
            total_cycles: 0,
            drained: false,
        };
        assert_roundtrip(&r);
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_000);
        let r =
            try_run_benchmark(Benchmark::X264, Mechanism::FpVaxx, &cfg, 1).expect("run completes");
        let good = encode_run_result(&r);
        assert!(decode_run_result("").is_none());
        assert!(decode_run_result("garbage").is_none());
        assert!(decode_run_result(&good.replace("v8", "v7")).is_none());
        let truncated = &good[..good.rfind("activity_cycles").expect("field present")];
        assert!(decode_run_result(truncated).is_none());
        let unknown = good.replace("mechanism FP-VAXX", "mechanism NO-SUCH");
        assert!(decode_run_result(&unknown).is_none());
        // Retired mechanisms that v8 builds could cache: their entries are
        // misses, never results under another mechanism.
        for retired in ["BD-COMP", "BD-VAXX", "FP-adaptive", "FP-VAXX-win"] {
            let stale = good.replace("mechanism FP-VAXX", &format!("mechanism {retired}"));
            assert!(decode_run_result(&stale).is_none(), "{retired}");
        }
    }

    #[test]
    fn stale_versions_are_rejected_not_misparsed() {
        // Older payloads must be refused outright. A v7 entry holds DI-VAXX
        // numbers from 16-bit TCAM keys; a v6 entry lacks the `words_lost`
        // fault counter; a v5 entry was produced by the
        // pre-staged methodology, so accepting it would mix two different
        // experiments in one figure; a v4 entry additionally lacks the
        // `drained` line, and v3 predates the LZ-VAXX mechanism namespace.
        let cfg = SystemConfig::paper().with_sim_cycles(1_000);
        let r =
            try_run_benchmark(Benchmark::X264, Mechanism::DiVaxx, &cfg, 2).expect("run completes");
        let v8 = encode_run_result(&r);
        assert!(v8.starts_with("# anoc-result v8\n"), "{v8}");
        for stale in [3u32, 4, 5, 6, 7] {
            let old = v8.replacen("# anoc-result v8", &format!("# anoc-result v{stale}"), 1);
            assert!(decode_run_result(&old).is_none());
            assert_eq!(payload_version(&old), Some(stale));
        }
        assert_eq!(payload_version(&v8), Some(RESULT_FORMAT_VERSION));
        assert_eq!(payload_version("not a result"), None);
        assert_eq!(payload_version(""), None);
    }
}
