//! BD-COMP and BD-VAXX: base-delta block codecs — the plug-and-play
//! extension study.
//!
//! The paper's §6 cites Zhan et al. (ASP-DAC'14), who "introduced a
//! base-delta compression technique in NoCs to exploit the small
//! intra-variance in data communication", and claims VAXX "can be used in
//! the manner of plug and play module for any underlying NoC data
//! compression mechanisms" (§1). This module makes that claim concrete with
//! a third codec family: a block is encoded as one base word plus narrow
//! signed deltas, and BD-VAXX widens the delta fit using each word's
//! don't-care tolerance — a word that misses the delta range is *pulled* to
//! the nearest in-range value if that value still satisfies the threshold.
//!
//! Wire format per block (the classic BDI dual-base layout): a 3-bit
//! configuration tag selecting the delta width, the explicit base word, and
//! then per word a 1-bit fit flag — fitted words carry a 1-bit base selector
//! (implicit zero base vs the explicit base) plus the delta; misfits travel
//! raw. Blocks for which no width is profitable travel uncompressed.

use anoc_core::avcl::Avcl;
use anoc_core::codec::{
    BlockDecoder, BlockEncoder, CodecActivity, DecodeResult, EncodedBlock, WordCode,
};
use anoc_core::data::{CacheBlock, DataType, NodeId};

/// Delta widths tried, in increasing cost (Zhan et al. use byte-granular
/// deltas; 4-bit deltas capture near-repeats).
const DELTA_WIDTHS: [u8; 3] = [4, 8, 16];

/// Per-block configuration-tag overhead in bits.
const CONFIG_TAG_BITS: u8 = 3;

/// The BD-COMP / BD-VAXX encoder.
#[derive(Debug, Clone)]
pub struct BdEncoder {
    avcl: Option<Avcl>,
    activity: CodecActivity,
}

impl BdEncoder {
    /// Creates an exact base-delta encoder (BD-COMP).
    pub fn bd_comp() -> Self {
        BdEncoder {
            avcl: None,
            activity: CodecActivity::default(),
        }
    }

    /// Creates a BD-VAXX encoder with the given AVCL.
    pub fn bd_vaxx(avcl: Avcl) -> Self {
        BdEncoder {
            avcl: Some(avcl),
            activity: CodecActivity::default(),
        }
    }

    /// Whether this encoder approximates (BD-VAXX).
    pub fn is_vaxx(&self) -> bool {
        self.avcl.is_some()
    }

    /// Fits `word` to `anchor ± (2^(bits-1) - 1)`, exactly or (when
    /// allowed) by approximating it to the nearest in-range value within
    /// the word's own tolerance. Returns `(transmitted_value, approx)`.
    fn fit_delta(
        &self,
        word: u32,
        anchor: u32,
        bits: u8,
        dtype: DataType,
        approx_on: bool,
    ) -> Option<(u32, bool)> {
        let limit = (1i64 << (bits - 1)) - 1;
        let delta = word as i32 as i64 - anchor as i32 as i64;
        if delta.abs() <= limit {
            return Some((word, false));
        }
        if !approx_on {
            return None;
        }
        // Pull the word to the nearest edge of the delta range and check it
        // against the word's own don't-care tolerance.
        let clamped = anchor as i32 as i64 + delta.clamp(-limit, limit);
        let candidate = clamped as u32; // same 32-bit ring as the words
        let avcl = self.avcl.as_ref()?;
        if avcl.accepts(word, candidate, dtype) {
            Some((candidate, true))
        } else {
            None
        }
    }

    /// Encodes the block with `bits`-wide deltas against the dual base
    /// (implicit zero + the first word), per-word fit flags, and raw
    /// fallbacks. Always succeeds; the caller compares total cost.
    fn encode_config(&self, block: &CacheBlock, bits: u8, approx_on: bool) -> EncodedBlock {
        let words = block.words();
        let base = words[0];
        let mut codes = EncodedBlock::empty_for(block);
        codes.push(WordCode::Raw {
            word: base,
            prefix_bits: CONFIG_TAG_BITS,
        });
        for &w in &words[1..] {
            // Try the explicit base, then the implicit zero base.
            let fit = self
                .fit_delta(w, base, bits, block.dtype(), approx_on)
                .or_else(|| self.fit_delta(w, 0, bits, block.dtype(), approx_on));
            match fit {
                Some((value, approx)) => codes.push(WordCode::Delta {
                    delta: (value as i32).wrapping_sub(base as i32),
                    // Wire cost: fit flag + base selector + delta bits.
                    delta_bits: bits + 2,
                    approx,
                }),
                None => codes.push(WordCode::Raw {
                    word: w,
                    prefix_bits: 1, // fit flag
                }),
            }
        }
        codes
    }
}

impl BlockEncoder for BdEncoder {
    fn name(&self) -> &'static str {
        if self.is_vaxx() {
            "BD-VAXX"
        } else {
            "BD-COMP"
        }
    }

    fn encode(&mut self, block: &CacheBlock, _dest: NodeId) -> EncodedBlock {
        let approx_on = self.is_vaxx() && block.is_approximable();
        self.activity.words_encoded += block.len() as u64;
        self.activity.cam_searches += 1; // one parallel delta comparison pass
        if approx_on {
            self.activity.avcl_ops += block.len() as u64;
        }
        let words = block.words();
        let mut codes = EncodedBlock::empty_for(block);
        if words.is_empty() {
            return codes;
        }
        // All-zero block: the tag alone suffices.
        if words.iter().all(|w| *w == 0) {
            codes.extend(
                words
                    .chunks(8)
                    .map(|c| WordCode::ZeroRun { len: c.len() as u8 }),
            );
            return codes;
        }
        // Repeated (or approximately repeated) block: base + 0-bit deltas.
        if let Some(repeat) = self.try_config_repeat(block, approx_on) {
            return repeat;
        }
        // Pick the cheapest delta width (DELTA_WIDTHS is a non-empty const,
        // so the min exists); fall back to uncompressed (one tag bit) when no
        // width is profitable.
        if let Some(best) = DELTA_WIDTHS
            .iter()
            .map(|bits| self.encode_config(block, *bits, approx_on))
            .min_by_key(EncodedBlock::payload_bits)
        {
            if u64::from(best.payload_bits()) < block.size_bits() + 1 {
                return best;
            }
        }
        codes.extend(words.iter().map(|&word| WordCode::Raw {
            word,
            prefix_bits: 1,
        }));
        codes
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }
}

impl BdEncoder {
    /// The repeated-word configuration: every word equals (or approximates
    /// to) the base; only the base travels.
    fn try_config_repeat(&self, block: &CacheBlock, approx_on: bool) -> Option<EncodedBlock> {
        let words = block.words();
        let base = words[0];
        let mut codes = EncodedBlock::empty_for(block);
        codes.push(WordCode::Raw {
            word: base,
            prefix_bits: CONFIG_TAG_BITS,
        });
        for &w in &words[1..] {
            if w == base {
                codes.push(WordCode::Delta {
                    delta: 0,
                    delta_bits: 0,
                    approx: false,
                });
            } else if approx_on && self.avcl.as_ref()?.accepts(w, base, block.dtype()) {
                codes.push(WordCode::Delta {
                    delta: 0,
                    delta_bits: 0,
                    approx: true,
                });
            } else {
                return None;
            }
        }
        Some(codes)
    }
}

/// The base-delta decoder (shared by BD-COMP and BD-VAXX).
#[derive(Debug, Clone, Default)]
pub struct BdDecoder {
    activity: CodecActivity,
}

impl BdDecoder {
    /// Creates a base-delta decoder.
    pub fn new() -> Self {
        BdDecoder::default()
    }
}

impl BlockDecoder for BdDecoder {
    fn name(&self) -> &'static str {
        "BD-decoder"
    }

    fn decode(&mut self, encoded: &EncodedBlock, _src: NodeId) -> DecodeResult {
        let mut block = CacheBlock::empty(encoded.dtype(), encoded.is_approximable());
        let mut base = 0u32;
        for code in encoded.codes() {
            match *code {
                WordCode::Raw { word, prefix_bits } => {
                    // Only the config-tagged block base (3-bit prefix) sets
                    // the delta anchor; per-word raw fallbacks do not.
                    if prefix_bits >= CONFIG_TAG_BITS {
                        base = word;
                    }
                    block.push(word);
                }
                WordCode::ZeroRun { len } => {
                    block.extend(std::iter::repeat_n(0u32, len as usize));
                }
                WordCode::Delta { delta, .. } => {
                    block.push((base as i32).wrapping_add(delta) as u32);
                }
                ref other => unreachable!("base-delta stream cannot contain {other:?}"),
            }
        }
        self.activity.words_decoded += block.len() as u64;
        DecodeResult {
            block,
            notifications: Vec::new(),
        }
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::threshold::ErrorThreshold;

    fn avcl(pct: u32) -> Avcl {
        Avcl::new(ErrorThreshold::from_percent(pct).unwrap())
    }

    fn roundtrip(enc: &mut BdEncoder, block: &CacheBlock) -> CacheBlock {
        let e = enc.encode(block, NodeId(1));
        BdDecoder::new().decode(&e, NodeId(0)).block
    }

    #[test]
    fn zero_block_is_six_bits_per_run() {
        let mut enc = BdEncoder::bd_comp();
        let block = CacheBlock::from_i32(&[0; 16]);
        let e = enc.encode(&block, NodeId(1));
        assert_eq!(e.payload_bits(), 12);
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn repeated_block_sends_only_the_base() {
        let mut enc = BdEncoder::bd_comp();
        let block = CacheBlock::from_i32(&[0x1234_5678; 16]);
        let e = enc.encode(&block, NodeId(1));
        // base (32 + 3 tag) + 15 zero-width deltas.
        assert_eq!(e.payload_bits(), 35);
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn low_variance_block_uses_narrow_deltas() {
        let mut enc = BdEncoder::bd_comp();
        let words: Vec<i32> = (0..16).map(|i| 1_000_000 + i).collect();
        let block = CacheBlock::from_i32(&words);
        let e = enc.encode(&block, NodeId(1));
        // Deltas 1..15 overflow the 4-bit limit (7), so the cheapest full
        // fit is 8-bit: base (35) + 15 x (8 + 2 flag/selector bits)... but
        // the 4-bit config with half the words raw can win; just bound it.
        assert!(e.payload_bits() <= 35 + 15 * 10, "{}", e.payload_bits());
        assert!(u64::from(e.payload_bits()) < block.size_bits());
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn mixed_block_compresses_partially() {
        // Two outliers among near-base words: per-word fit flags keep the
        // block compressible (the all-or-nothing scheme could not).
        let mut enc = BdEncoder::bd_comp();
        let mut words = vec![500_000i32; 14];
        words.push(0x7FFF_FFFF);
        words.push(-123_456_789);
        let block = CacheBlock::from_i32(&words);
        let e = enc.encode(&block, NodeId(1));
        assert!(u64::from(e.payload_bits()) < block.size_bits());
        let s = e.stats();
        assert!(s.raw >= 2 && s.exact_encoded >= 12, "{s:?}");
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn high_variance_block_stays_raw() {
        let mut enc = BdEncoder::bd_comp();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(77);
        let words: Vec<i32> = (0..16)
            .map(|_| (rng.next_u32() | 0x4040_0000) as i32)
            .collect();
        let block = CacheBlock::from_i32(&words);
        let e = enc.encode(&block, NodeId(1));
        // Not inflated beyond one flag bit per word.
        assert!(u64::from(e.payload_bits()) <= block.size_bits() + 16);
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn zero_base_catches_small_words() {
        // Base is huge, but small words fit the implicit zero base.
        let mut enc = BdEncoder::bd_comp();
        let block = CacheBlock::from_i32(&[1_000_000, 5, -7, 100, 1_000_050, 3, 90, -2]);
        let e = enc.encode(&block, NodeId(1));
        assert!(u64::from(e.payload_bits()) < block.size_bits());
        assert_eq!(roundtrip(&mut enc, &block), block);
    }

    #[test]
    fn bd_comp_is_always_lossless() {
        let mut enc = BdEncoder::bd_comp();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(5);
        for _ in 0..200 {
            let base = rng.next_u32() >> rng.below(16);
            let words: Vec<i32> = (0..16)
                .map(|_| (base as i32).wrapping_add(rng.next_u32() as i32 >> rng.below(28)))
                .collect();
            let block = CacheBlock::from_i32(&words);
            assert_eq!(roundtrip(&mut enc, &block), block);
        }
    }

    #[test]
    fn bd_vaxx_pulls_outliers_into_range() {
        let mut enc = BdEncoder::bd_vaxx(avcl(10));
        // Base 100_000; one word at +150 misses the 8-bit range (limit 127)
        // but its 10% tolerance (range 6250) allows pulling it to +127.
        let mut words = vec![100_000i32; 16];
        words[7] = 100_150;
        let block = CacheBlock::from_i32(&words);
        let e = enc.encode(&block, NodeId(1));
        let s = e.stats();
        assert!(s.approx_encoded >= 1, "{s:?}");
        let d = BdDecoder::new().decode(&e, NodeId(0)).block;
        for (p, a) in block.words().iter().zip(d.words()) {
            let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
            assert!(err <= 0.10, "{p} -> {a}");
        }
        // The exact encoder cannot do this with 4-bit deltas... verify the
        // VAXX version compresses no worse than the exact one.
        let mut exact = BdEncoder::bd_comp();
        let e2 = exact.encode(&block, NodeId(1));
        assert!(e.payload_bits() <= e2.payload_bits());
    }

    #[test]
    fn bd_vaxx_respects_precise_blocks() {
        let mut enc = BdEncoder::bd_vaxx(avcl(20));
        let mut words = vec![50_000i32; 8];
        words[3] = 51_000; // outside every delta... within 16-bit (1000 < 32767)
        words[4] = 3_000_000; // genuinely far
        let block = CacheBlock::from_i32(&words).with_approximable(false);
        let d = roundtrip(&mut enc, &block);
        assert_eq!(d, block, "precise data must be bit-exact");
    }

    #[test]
    fn bd_vaxx_threshold_never_violated() {
        let t = ErrorThreshold::from_percent(10).unwrap();
        let mut enc = BdEncoder::bd_vaxx(Avcl::new(t));
        let mut dec = BdDecoder::new();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(11);
        for _ in 0..300 {
            let base = (rng.next_u32() >> rng.below(12)) as i32;
            let words: Vec<i32> = (0..16)
                .map(|_| base.wrapping_add((rng.next_u32() >> rng.below(28)) as i32))
                .collect();
            let block = CacheBlock::from_i32(&words);
            let e = enc.encode(&block, NodeId(1));
            let d = dec.decode(&e, NodeId(0)).block;
            for (p, a) in block.words().iter().zip(d.words()) {
                let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
                assert!(err <= 0.10 + 1e-12, "{p:#x} -> {a:#x} err {err}");
            }
        }
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(BdEncoder::bd_comp().name(), "BD-COMP");
        assert_eq!(BdEncoder::bd_vaxx(avcl(10)).name(), "BD-VAXX");
        assert!(BdEncoder::bd_vaxx(avcl(10)).is_vaxx());
        assert!(!BdEncoder::bd_comp().is_vaxx());
        assert_eq!(BdDecoder::new().name(), "BD-decoder");
        assert_eq!(BdEncoder::bd_comp().compression_latency(), 3);
        assert_eq!(BdDecoder::new().decompression_latency(), 2);
    }

    #[test]
    fn empty_block() {
        let mut enc = BdEncoder::bd_comp();
        let block = CacheBlock::precise(vec![]);
        let e = enc.encode(&block, NodeId(1));
        assert!(e.is_empty());
        assert_eq!(roundtrip(&mut enc, &block), block);
    }
}
