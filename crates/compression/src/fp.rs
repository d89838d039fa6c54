//! FP-COMP and FP-VAXX: static frequent-pattern block codecs (§4.1).
//!
//! FP-COMP compresses each word that exactly matches a row of the static
//! pattern table (Figure 5). FP-VAXX first runs the word through the AVCL to
//! obtain its don't-care bits, then matches only the remaining bits against
//! the pattern-matching table (Figure 6); the decoder is unchanged. Both
//! merge consecutive zero words into zero-run codes.

use anoc_core::avcl::Avcl;
use anoc_core::codec::{
    BlockDecoder, BlockEncoder, CodecActivity, DecodeResult, EncodedBlock, LineBlock, Spill,
    WordCode,
};
use anoc_core::data::{CacheBlock, DataType, NodeId, BLOCK_WORDS};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use anoc_core::window::WindowBudget;

use crate::fpc::{self, FpcClass, NO_ROW, ROW_CODES};

/// Maximum zero-run length expressible in the 3-bit run-length adjunct.
const MAX_ZERO_RUN: u8 = 8;

/// The FP-COMP / FP-VAXX encoder. Stateless across blocks (the pattern table
/// is static), so one instance can serve a whole NI.
#[derive(Debug, Clone)]
pub struct FpEncoder {
    avcl: Option<Avcl>,
    window: Option<WindowBudget>,
    activity: CodecActivity,
}

impl FpEncoder {
    /// Creates a plain FP-COMP encoder (exact matching only).
    pub fn fp_comp() -> Self {
        FpEncoder {
            avcl: None,
            window: None,
            activity: CodecActivity::default(),
        }
    }

    /// Creates an FP-VAXX encoder with the given AVCL.
    pub fn fp_vaxx(avcl: Avcl) -> Self {
        FpEncoder {
            avcl: Some(avcl),
            window: None,
            activity: CodecActivity::default(),
        }
    }

    /// Creates an FP-VAXX encoder with a window-based cumulative error
    /// budget (§7 future work): words that compress exactly donate their
    /// unused tolerance to later words in the same window, yielding more
    /// approximate matches at the same average error.
    pub fn fp_vaxx_windowed(budget: WindowBudget) -> Self {
        let base = Avcl::new(budget.next_threshold());
        FpEncoder {
            avcl: Some(base),
            window: Some(budget),
            activity: CodecActivity::default(),
        }
    }

    /// Whether this encoder approximates (FP-VAXX) or is exact (FP-COMP).
    pub fn is_vaxx(&self) -> bool {
        self.avcl.is_some()
    }

    /// Whether this encoder pools error tolerance across a word window.
    pub fn is_windowed(&self) -> bool {
        self.window.is_some()
    }

    /// Replaces the AVCL at run time — the dynamic-threshold hook of §1
    /// ("can be dynamically adjusted at run time"). No-op on FP-COMP.
    /// Static pattern matching has no state to invalidate, so the change
    /// takes effect on the next word.
    pub fn set_avcl(&mut self, avcl: Avcl) {
        if self.avcl.is_some() {
            self.avcl = Some(avcl);
        }
    }
}

impl BlockEncoder for FpEncoder {
    fn name(&self) -> &'static str {
        if self.is_vaxx() {
            "FP-VAXX"
        } else {
            "FP-COMP"
        }
    }

    fn encode(&mut self, block: &CacheBlock, _dest: NodeId) -> EncodedBlock {
        let (words, dtype) = (block.words(), block.dtype());
        let avcl = self.avcl.filter(|_| block.is_approximable());
        let n = words.len() as u64;
        self.activity.words_encoded += n;
        self.activity.cam_searches += n;
        self.activity.avcl_ops += if avcl.is_some() { n } else { 0 };
        let mut spill = Spill::new(dtype, block.is_approximable());
        let mut line = [EncodedBlock::FILL; BLOCK_WORDS];
        let mut len = 0;
        // Exact zero words not yet emitted: the zero run in progress.
        let mut run: u8 = 0;
        for chunk in words.chunks(8) {
            let lanes = <[u32; 8]>::try_from(chunk).unwrap_or_else(|_| fpc::pad8(chunk));
            let rows = match (&mut self.window, avcl) {
                (Some(budget), Some(installed)) => windowed_rows(budget, installed, chunk, dtype),
                (_, avcl) => {
                    let masks = match avcl {
                        Some(a) => a.approx_pattern8(&lanes, dtype).map(|p| p.mask()),
                        None => [0; 8],
                    };
                    fpc::first_rows8(&lanes, &masks)
                }
            };
            for (&word, &row) in chunk.iter().zip(&rows) {
                // Only a line longer than BLOCK_WORDS fills the local one.
                if len + usize::from(run > 0) == BLOCK_WORDS {
                    spill.take(&line, len);
                    len = 0;
                }
                let code = &ROW_CODES[usize::from(row)];
                let value = code.value(word);
                let own = if row == NO_ROW {
                    WordCode::Raw {
                        word,
                        prefix_bits: 3,
                    }
                } else {
                    // An approximated zero is a single-word zero pattern,
                    // flagged approximate for the encoding statistics.
                    WordCode::Pattern {
                        index: code.index,
                        adjunct: code.adjunct(value),
                        adjunct_bits: code.width,
                        approx: value != word,
                    }
                };
                // Store the run with this word added and the word's own code
                // after the run, whatever the word is; then advance past
                // what is emitted. An exact zero emits only a run that
                // reaches MAX_ZERO_RUN; any other word emits the pending run,
                // if there is one, then its own code.
                let zero = word == 0;
                let pending = run + u8::from(zero);
                line[len] = WordCode::ZeroRun { len: pending };
                line[len + usize::from(run > 0)] = own;
                let full = pending == MAX_ZERO_RUN;
                len += if zero {
                    usize::from(full)
                } else {
                    1 + usize::from(run > 0)
                };
                run = if zero && !full { pending } else { 0 };
            }
        }
        if run > 0 {
            line[len] = WordCode::ZeroRun { len: run };
            len += 1;
        }
        if spill.is_spilled() {
            return spill.finish(&line, len);
        }
        EncodedBlock::from_line(line, len, dtype, block.is_approximable())
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }

    fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        self.set_avcl(Avcl::new(threshold));
    }

    // The pattern table is static, so the only mutable state worth a
    // snapshot is the activity counters. The window budget is deliberately
    // excluded: windowed encoders exist only in custom-mechanism runs, which
    // never take the snapshot path.
    fn save_state(&self, w: &mut SnapWriter) {
        self.activity.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.activity = CodecActivity::load(r)?;
        Ok(())
    }
}

/// The rows of a windowed FP-VAXX encoder's words, one at a time: each
/// word's allowance depends on the error the word before it banked, so the
/// masks cannot be batched. Out of line, so the batched path stays tight.
#[inline(never)]
fn windowed_rows(
    budget: &mut WindowBudget,
    installed: Avcl,
    chunk: &[u32],
    dtype: DataType,
) -> [u8; 8] {
    let mut rows = [NO_ROW; 8];
    for (row, &word) in rows.iter_mut().zip(chunk) {
        let avcl = Avcl::with_policy(budget.next_threshold(), installed.policy());
        *row = fpc::first_row(word, avcl.approx_pattern(word, dtype).mask());
        let value = ROW_CODES[usize::from(*row)].value(word);
        let incurred = if value != word {
            Avcl::relative_error(word, value, dtype)
                .unwrap_or(0.0)
                .min(1.0)
        } else {
            0.0
        };
        budget.record(incurred);
    }
    rows
}

/// The FP-COMP / FP-VAXX decoder — shared by both mechanisms, since the
/// approximation is entirely a source-side affair.
#[derive(Debug, Clone, Default)]
pub struct FpDecoder {
    activity: CodecActivity,
}

impl FpDecoder {
    /// Creates a frequent-pattern decoder.
    pub fn new() -> Self {
        FpDecoder::default()
    }
}

impl BlockDecoder for FpDecoder {
    fn name(&self) -> &'static str {
        "FP-decoder"
    }

    fn decode(&mut self, encoded: &EncodedBlock, _src: NodeId) -> DecodeResult {
        let mut spill = Spill::new(encoded.dtype(), encoded.is_approximable());
        // Every slot at or past `len` holds zero, so a zero run only moves
        // `len` on.
        let mut line = [0u32; BLOCK_WORDS];
        let mut len = 0;
        for code in encoded.codes() {
            let (word, span) = match *code {
                WordCode::Raw { word, .. } => (word, 1),
                WordCode::ZeroRun { len } => (0, usize::from(len)),
                WordCode::Pattern { index, adjunct, .. } => match FpcClass::from_index(index) {
                    Some(FpcClass::Zero) => (0, adjunct as usize),
                    Some(class) => (class.decode(adjunct), 1),
                    // The encoder emits only valid pattern indices; deliver
                    // the adjunct raw rather than crash if one ever slips.
                    None => {
                        debug_assert!(false, "invalid FP pattern index {index}");
                        (adjunct, 1)
                    }
                },
                ref other @ (WordCode::Dict { .. }
                | WordCode::Delta { .. }
                | WordCode::Match { .. }) => {
                    unreachable!("frequent-pattern stream cannot contain {other:?}")
                }
            };
            if len < BLOCK_WORDS && span <= BLOCK_WORDS - len {
                line[len] = word;
                len += span;
                continue;
            }
            // Only a line longer than BLOCK_WORDS fills the local one.
            for _ in 0..span {
                if len == BLOCK_WORDS {
                    spill.take(&line, len);
                    line = [0; BLOCK_WORDS];
                    len = 0;
                }
                line[len] = word;
                len += 1;
            }
        }
        let notifications = Vec::new();
        if spill.is_spilled() {
            let block: CacheBlock = spill.finish(&line, len);
            self.activity.words_decoded += block.len() as u64;
            return DecodeResult {
                block,
                notifications,
            };
        }
        self.activity.words_decoded += len as u64;
        let block = CacheBlock::from_line(line, len, encoded.dtype(), encoded.is_approximable());
        DecodeResult {
            block,
            notifications,
        }
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.activity.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.activity = CodecActivity::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::data::DataType;
    use anoc_core::threshold::ErrorThreshold;

    fn avcl(pct: u32) -> Avcl {
        Avcl::new(ErrorThreshold::from_percent(pct).unwrap())
    }

    fn roundtrip(enc: &mut FpEncoder, block: &CacheBlock) -> CacheBlock {
        let e = enc.encode(block, NodeId(1));
        FpDecoder::new().decode(&e, NodeId(0)).block
    }

    #[test]
    fn fp_comp_is_lossless() {
        let mut enc = FpEncoder::fp_comp();
        let block = CacheBlock::from_i32(&[0, 0, 0, 5, -120, 30_000, 0x12345678u32 as i32, 0]);
        assert_eq!(roundtrip(&mut enc, &block), block);
        assert_eq!(enc.name(), "FP-COMP");
    }

    #[test]
    fn fp_comp_compresses_frequent_patterns() {
        let mut enc = FpEncoder::fp_comp();
        let block = CacheBlock::from_i32(&[0; 16]);
        let e = enc.encode(&block, NodeId(1));
        // 16 zeros = two zero-runs of 8 = 12 bits vs 512.
        assert_eq!(e.payload_bits(), 12);
        assert_eq!(e.word_count(), 16);
        let s = e.stats();
        assert_eq!(s.exact_encoded, 16);
        assert_eq!(s.raw, 0);
    }

    #[test]
    fn fp_vaxx_on_non_approximable_block_is_exact() {
        let mut vaxx = FpEncoder::fp_vaxx(avcl(20));
        let block = CacheBlock::precise(vec![0x12345678, 0xDEADBEEF]);
        let decoded = roundtrip(&mut vaxx, &block);
        assert_eq!(decoded, block);
        let e = vaxx.encode(&block, NodeId(1));
        assert!(e.codes().iter().all(|c| !c.is_approx()));
    }

    #[test]
    fn fp_vaxx_widens_matches() {
        // 0x0000_8003: exactly matches nothing (bit 15 breaks Se16 and the
        // low bits break HalfPadded). Under 10% threshold the don't-care
        // width of 0x8003 (range 0x8003 >> 4 = 0x800) is 11 bits, enough to
        // clear the low bits and match... Se16 needs bit 15 = 0 with 0-fill
        // high bits; bit 15 is a must bit? 11 don't-care bits cover bits
        // 0..10, so bit 15 stays -> HalfPadded also needs low 16 bits zero,
        // bits 11..15 = 0x8000|0x3 -> bits 11..14 zero, bit 15 one. Project
        // fails on bit 15. TwoHalfSe: hi half 0x0000 fits (sext of 0x00);
        // lo half 0x8003 must be sext8: bit 15..7 ... bit 7 = 0, bits 15..8
        // = 0x80 not uniform with bit 7 -> bit 15 must-bit breaks it too.
        // So this word stays raw — a real example that approximation is not
        // magic when high bits disagree.
        let mut vaxx = FpEncoder::fp_vaxx(avcl(10));
        let block = CacheBlock::from_i32(&[0x8003]);
        let e = vaxx.encode(&block, NodeId(1));
        assert!(matches!(e.codes()[0], WordCode::Raw { .. }));

        // 0x0000_7F09 under 10%: don't-care width of 0x7F09 is 10 bits;
        // Se16 projects (bits 15.. are zero) -- exact in fact? 0x7F09 < 2^15
        // so it matches Se16 exactly. Pick something needing approximation:
        // 0x0001_0007 (65543): Se16 fails exactly (bit 16). 10% threshold:
        // range = 65543 >> 4 = 4096 -> 12 don't-care bits; bits 16.. remain
        // must bits -> still no Se16. HalfPadded: low 16 bits = 0x0007, all
        // inside the 12-bit mask. Projects to 0x0001_0000 (error 7/65543).
        let block2 = CacheBlock::from_i32(&[0x0001_0007]);
        let e2 = vaxx.encode(&block2, NodeId(1));
        match e2.codes()[0] {
            WordCode::Pattern { index, approx, .. } => {
                assert_eq!(index, FpcClass::HalfPadded as u8);
                assert!(approx);
            }
            ref other => panic!("expected approximated HalfPadded, got {other:?}"),
        }
        let decoded = FpDecoder::new().decode(&e2, NodeId(0)).block;
        assert_eq!(decoded.words()[0], 0x0001_0000);
    }

    #[test]
    fn fp_vaxx_approximation_respects_threshold() {
        let t = ErrorThreshold::from_percent(10).unwrap();
        let mut vaxx = FpEncoder::fp_vaxx(Avcl::new(t));
        let mut dec = FpDecoder::new();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(99);
        for _ in 0..200 {
            let words: Vec<i32> = (0..8)
                .map(|_| rng.next_u32() as i32 >> (rng.below(24)))
                .collect();
            let block = CacheBlock::from_i32(&words);
            let e = vaxx.encode(&block, NodeId(1));
            let d = dec.decode(&e, NodeId(0)).block;
            for (p, a) in block.words().iter().zip(d.words()) {
                let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
                assert!(err <= 0.10 + 1e-12, "word {p:#x} -> {a:#x} err {err}");
            }
        }
    }

    #[test]
    fn fp_vaxx_float_blocks() {
        let mut vaxx = FpEncoder::fp_vaxx(avcl(10));
        let mut dec = FpDecoder::new();
        let vals = [0.0f32, 1.0, -1.0, 2.6181, 1e-8, f32::INFINITY];
        let block = CacheBlock::from_f32(&vals);
        let e = vaxx.encode(&block, NodeId(1));
        let d = dec.decode(&e, NodeId(0)).block;
        for (p, a) in block.as_f32().iter().zip(d.as_f32()) {
            if p.is_finite() && *p != 0.0 {
                assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
            } else {
                assert_eq!(p.to_bits(), a.to_bits(), "specials must be exact");
            }
        }
    }

    #[test]
    fn zero_run_capped_at_eight() {
        let mut enc = FpEncoder::fp_comp();
        let block = CacheBlock::from_i32(&[0; 20]);
        let e = enc.encode(&block, NodeId(1));
        let runs: Vec<u8> = e
            .codes()
            .iter()
            .map(|c| match c {
                WordCode::ZeroRun { len } => *len,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(runs, vec![8, 8, 4]);
        let d = FpDecoder::new().decode(&e, NodeId(0)).block;
        assert_eq!(d.words(), vec![0u32; 20]);
    }

    #[test]
    fn zero_run_broken_by_nonzero_word() {
        let mut enc = FpEncoder::fp_comp();
        let block = CacheBlock::from_i32(&[0, 0, 7, 0]);
        let e = enc.encode(&block, NodeId(1));
        assert_eq!(e.codes().len(), 3); // run(2), Se4(7), run(1)
        let d = FpDecoder::new().decode(&e, NodeId(0)).block;
        assert_eq!(d, block);
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut enc = FpEncoder::fp_vaxx(avcl(10));
        let block = CacheBlock::from_i32(&[1, 2, 3, 4]);
        enc.encode(&block, NodeId(1));
        let a = enc.activity();
        assert_eq!(a.words_encoded, 4);
        assert_eq!(a.cam_searches, 4);
        assert_eq!(a.avcl_ops, 4);
        let mut exact = FpEncoder::fp_comp();
        exact.encode(&block, NodeId(1));
        assert_eq!(exact.activity().avcl_ops, 0);
    }

    #[test]
    fn default_latencies_match_paper() {
        let enc = FpEncoder::fp_comp();
        let dec = FpDecoder::new();
        assert_eq!(enc.compression_latency(), 3);
        assert_eq!(dec.decompression_latency(), 2);
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use anoc_core::window::WindowBudget;

    #[test]
    fn windowed_encoder_flags() {
        let w = FpEncoder::fp_vaxx_windowed(WindowBudget::new(10));
        assert!(w.is_vaxx() && w.is_windowed());
        assert!(!FpEncoder::fp_comp().is_windowed());
    }

    #[test]
    fn windowed_mode_wins_more_approximate_matches() {
        use anoc_core::threshold::ErrorThreshold;
        // A stream where half the words are exactly compressible (zeros) and
        // half need > 10% tolerance to reach a frequent pattern. The plain
        // 10% FP-VAXX misses them; the windowed version banks the zeros'
        // budget and converts them.
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(3);
        let blocks: Vec<CacheBlock> = (0..100)
            .map(|_| {
                let words: Vec<i32> = (0..16)
                    .map(|i| {
                        if i % 2 == 0 {
                            0
                        } else {
                            // ~30% away from the all-zero-low-halfword shape
                            0x0001_0000 + rng.below(0x4000) as i32
                        }
                    })
                    .collect();
                CacheBlock::from_i32(&words)
            })
            .collect();
        let mut plain = FpEncoder::fp_vaxx(Avcl::new(ErrorThreshold::from_percent(10).unwrap()));
        let mut windowed = FpEncoder::fp_vaxx_windowed(WindowBudget::new(10));
        let mut sp = anoc_core::codec::EncodeStats::default();
        let mut sw = anoc_core::codec::EncodeStats::default();
        for b in &blocks {
            sp.absorb_block(&plain.encode(b, NodeId(1)));
            sw.absorb_block(&windowed.encode(b, NodeId(1)));
        }
        assert!(
            sw.approx_encoded > sp.approx_encoded,
            "windowed {} vs plain {}",
            sw.approx_encoded,
            sp.approx_encoded
        );
        assert!(sw.compression_ratio() > sp.compression_ratio());
    }

    #[test]
    fn windowed_average_error_stays_near_base() {
        use anoc_core::metrics::QualityAccumulator;
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(5);
        let mut enc = FpEncoder::fp_vaxx_windowed(WindowBudget::new(10));
        let mut dec = FpDecoder::new();
        let mut q = QualityAccumulator::new();
        for _ in 0..200 {
            let words: Vec<i32> = (0..16)
                .map(|_| (rng.next_u32() >> rng.below(20)) as i32)
                .collect();
            let block = CacheBlock::from_i32(&words);
            let e = enc.encode(&block, NodeId(1));
            let d = dec.decode(&e, NodeId(0)).block;
            q.record_block(&block, &d);
        }
        // Average relative error across the stream stays at/under the 10%
        // base even though single words may exceed it (window semantics).
        assert!(
            q.mean_relative_error() <= 0.10 + 1e-9,
            "mean error {}",
            q.mean_relative_error()
        );
    }
}

#[cfg(test)]
mod dynamic_threshold_tests {
    use super::*;
    use anoc_core::control::QualityController;
    use anoc_core::metrics::QualityAccumulator;
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn set_avcl_changes_matching_behaviour() {
        let mut enc = FpEncoder::fp_vaxx(Avcl::new(ErrorThreshold::from_percent(1).unwrap()));
        // 0x0018_8007: bit 15 of the low halfword blocks HalfPadded until
        // the don't-care mask covers the whole halfword (needs ~10%).
        let block = CacheBlock::from_i32(&[0x0018_8007]);
        let tight = enc.encode(&block, NodeId(1));
        assert_eq!(tight.stats().raw, 1, "1% threshold cannot approximate");
        enc.set_avcl(Avcl::new(ErrorThreshold::from_percent(10).unwrap()));
        let wide = enc.encode(&block, NodeId(1));
        assert_eq!(wide.stats().approx_encoded, 1, "10% threshold can");
        // FP-COMP ignores the hook.
        let mut exact = FpEncoder::fp_comp();
        exact.set_avcl(Avcl::new(ErrorThreshold::from_percent(50).unwrap()));
        assert!(!exact.is_vaxx());
    }

    #[test]
    fn controller_drives_the_encoder_loop() {
        // Close the loop: encode epochs, measure realized quality, let the
        // controller adjust the threshold. Quality floor must hold.
        let mut controller = QualityController::paper_defaults();
        let mut enc = FpEncoder::fp_vaxx(Avcl::new(controller.threshold()));
        let mut dec = FpDecoder::new();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(9);
        for _epoch in 0..10 {
            let mut q = QualityAccumulator::new();
            for _ in 0..50 {
                let words: Vec<i32> = (0..16)
                    .map(|_| (rng.next_u32() >> rng.below(20)) as i32)
                    .collect();
                let block = CacheBlock::from_i32(&words);
                let e = enc.encode(&block, NodeId(1));
                let d = dec.decode(&e, NodeId(0)).block;
                q.record_block(&block, &d);
            }
            let next = controller.observe(q.quality());
            enc.set_avcl(Avcl::new(next));
            assert!(
                q.quality() > 0.95,
                "epoch quality collapsed: {}",
                q.quality()
            );
        }
        // With FP-VAXX's conservative realized error, the controller should
        // have grown the threshold towards its cap.
        assert!(controller.percent() >= 10, "{}", controller.percent());
    }
}
