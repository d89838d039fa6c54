//! DI-COMP and DI-VAXX: dynamic dictionary block codecs (§4.2).
//!
//! The decoder learns recurring patterns and announces encoded indices to the
//! paired encoders via notifications; the encoder compresses any word whose
//! pattern (exactly, or approximately through the DI-VAXX TCAM) has an
//! announced index for the packet's destination. Words that miss travel raw
//! with a one-bit flag, and the decoder observes them to keep learning.

use anoc_core::avcl::Avcl;
use anoc_core::codec::{
    BlockDecoder, BlockEncoder, CodecActivity, DecodeResult, EncodedBlock, Notification, WordCode,
};
use anoc_core::data::{CacheBlock, NodeId, BLOCK_WORDS};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;

use crate::dictionary::{index_bits, DecoderPmt, EncoderPmt, DEFAULT_PMT_ENTRIES};

/// Configuration shared by the dictionary codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiConfig {
    /// PMT entries at both the encoder and the decoder (Table 1: 8).
    pub pmt_entries: usize,
    /// Number of nodes in the network (for valid-bit / index vectors).
    pub num_nodes: usize,
}

impl DiConfig {
    /// The paper's configuration for a network of `num_nodes` nodes.
    pub fn for_nodes(num_nodes: usize) -> Self {
        DiConfig {
            pmt_entries: DEFAULT_PMT_ENTRIES,
            num_nodes,
        }
    }
}

/// Both sides of a dictionary pair halve their frequency counters every this
/// many observed words.
const DECAY_INTERVAL: u64 = 4096;

/// The frequency-aging clock of one dictionary codec: it counts observed
/// words down to the next decay, so the per-word check is a compare and a
/// decrement rather than a division of the running word count.
#[derive(Debug, Clone, Copy)]
struct DecayClock {
    /// Words until the next decay, 1 on the word that decays.
    left: u64,
}

impl DecayClock {
    /// The clock after `words_seen` words. A restored codec derives its
    /// clock this way from the snapshot's word count, so it decays on the
    /// same word as an uninterrupted one.
    fn at(words_seen: u64) -> Self {
        DecayClock {
            left: DECAY_INTERVAL - words_seen % DECAY_INTERVAL,
        }
    }

    /// Counts one word; true when the running word count reaches a multiple
    /// of the interval.
    #[inline]
    fn tick(&mut self) -> bool {
        let fire = self.left == 1;
        self.left = if fire { DECAY_INTERVAL } else { self.left - 1 };
        fire
    }
}

/// The DI-COMP / DI-VAXX encoder for one node.
#[derive(Debug, Clone)]
pub struct DiEncoder {
    pmt: EncoderPmt,
    avcl: Option<Avcl>,
    index_bits: u8,
    words_seen: u64,
    decay: DecayClock,
    activity: CodecActivity,
}

impl DiEncoder {
    /// Creates a DI-COMP (exact) encoder.
    pub fn di_comp(config: DiConfig) -> Self {
        DiEncoder {
            pmt: EncoderPmt::di_comp(config.pmt_entries, config.num_nodes),
            avcl: None,
            index_bits: index_bits(config.pmt_entries),
            words_seen: 0,
            decay: DecayClock::at(0),
            activity: CodecActivity::default(),
        }
    }

    /// Creates a DI-VAXX encoder whose APCL uses `avcl`.
    pub fn di_vaxx(config: DiConfig, avcl: Avcl) -> Self {
        DiEncoder {
            pmt: EncoderPmt::di_vaxx(config.pmt_entries, config.num_nodes, avcl),
            avcl: Some(avcl),
            index_bits: index_bits(config.pmt_entries),
            words_seen: 0,
            decay: DecayClock::at(0),
            activity: CodecActivity::default(),
        }
    }

    /// Whether this encoder approximates (DI-VAXX).
    pub fn is_vaxx(&self) -> bool {
        self.avcl.is_some()
    }

    /// Read access to the PMT (for inspection in tests/ablation benches).
    pub fn pmt(&self) -> &EncoderPmt {
        &self.pmt
    }
}

impl BlockEncoder for DiEncoder {
    fn name(&self) -> &'static str {
        if self.is_vaxx() {
            "DI-VAXX"
        } else {
            "DI-COMP"
        }
    }

    fn encode(&mut self, block: &CacheBlock, dest: NodeId) -> EncodedBlock {
        let (words, dtype) = (block.words(), block.dtype());
        let approx_on = self.is_vaxx() && block.is_approximable();
        let n = words.len() as u64;
        self.activity.words_encoded += n;
        self.words_seen += n;
        if approx_on {
            self.activity.tcam_searches += n;
        } else {
            self.activity.cam_searches += n;
        }
        let mut line = [EncodedBlock::FILL; BLOCK_WORDS];
        // Local copies keep the countdown and the destination's row in
        // registers across the lookups.
        let mut decay = self.decay;
        let mut pmt = self.pmt.lookups(dest);
        for (slot, &word) in line.iter_mut().zip(words) {
            if decay.tick() {
                pmt.decay();
            }
            // Approximate (TCAM) path first for approximable data: the paper
            // always prefers the pre-computed approximate pattern match
            // because it is what the TCAM returns in one search.
            let hit = if approx_on {
                pmt.approx_or_exact(word, dtype)
            } else {
                pmt.exact(word)
            };
            *slot = match hit {
                // Only a TCAM hit can resolve to a different word.
                Some(rec) => WordCode::Dict {
                    index: rec.index,
                    index_bits: self.index_bits,
                    approx: rec.original != word,
                    pattern: rec.original,
                },
                None => WordCode::Raw {
                    word,
                    prefix_bits: 1,
                },
            };
        }
        self.decay = decay;
        EncodedBlock::from_line(line, words.len(), dtype, block.is_approximable())
    }

    fn apply_notification(&mut self, from: NodeId, note: Notification) {
        self.activity.notifications += 1;
        self.activity.table_updates += 1;
        if self.is_vaxx() {
            self.activity.avcl_ops += 1; // APCL runs at install time
        }
        self.pmt.apply(from, note);
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }

    fn inject_table_fault(&mut self, entropy: u64) -> bool {
        self.pmt.corrupt(entropy)
    }

    fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        if self.avcl.is_some() {
            let avcl = Avcl::new(threshold);
            self.avcl = Some(avcl);
            self.pmt.set_apcl(avcl);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.pmt.save_state(w);
        w.u64(self.words_seen);
        self.activity.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pmt.load_state(r)?;
        self.words_seen = r.u64()?;
        self.decay = DecayClock::at(self.words_seen);
        self.activity = CodecActivity::load(r)?;
        Ok(())
    }
}

/// The dictionary decoder for one node — identical for DI-COMP and DI-VAXX
/// (a plain CAM indexed by the encoded index, §4.2.1).
#[derive(Debug, Clone)]
pub struct DiDecoder {
    pmt: DecoderPmt,
    words_seen: u64,
    decay: DecayClock,
    activity: CodecActivity,
}

impl DiDecoder {
    /// Creates a dictionary decoder.
    pub fn new(config: DiConfig) -> Self {
        DiDecoder {
            pmt: DecoderPmt::new(config.pmt_entries, config.num_nodes),
            words_seen: 0,
            decay: DecayClock::at(0),
            activity: CodecActivity::default(),
        }
    }

    /// Stale-index races observed (resolved by the consistency protocol).
    pub fn races(&self) -> u64 {
        self.pmt.races()
    }

    /// Read access to the PMT.
    pub fn pmt(&self) -> &DecoderPmt {
        &self.pmt
    }
}

impl BlockDecoder for DiDecoder {
    fn name(&self) -> &'static str {
        "DI-decoder"
    }

    fn decode(&mut self, encoded: &EncodedBlock, src: NodeId) -> DecodeResult {
        let mut block = CacheBlock::empty(encoded.dtype(), encoded.is_approximable());
        let mut notifications = Vec::new();
        self.activity.words_decoded += encoded.len() as u64;
        self.words_seen += encoded.len() as u64;
        let mut decay = self.decay;
        for code in encoded.codes() {
            if decay.tick() {
                self.pmt.decay();
            }
            match *code {
                WordCode::Raw { word, .. } => {
                    // Learning happens on the uncompressed stream.
                    self.pmt
                        .observe_raw(word, src, encoded.dtype(), &mut notifications);
                    block.push(word);
                }
                WordCode::Dict { index, pattern, .. } => {
                    self.activity.cam_searches += 1;
                    self.pmt.record_hit(index, pattern);
                    block.push(pattern);
                }
                ref other => {
                    unreachable!("dictionary stream cannot contain {other:?}")
                }
            }
        }
        self.decay = decay;
        self.activity.notifications += notifications.len() as u64;
        DecodeResult {
            block,
            notifications,
        }
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.pmt.save_state(w);
        w.u64(self.words_seen);
        self.activity.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pmt.load_state(r)?;
        self.words_seen = r.u64()?;
        self.decay = DecayClock::at(self.words_seen);
        self.activity = CodecActivity::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::avcl::Avcl;
    use anoc_core::data::DataType;
    use anoc_core::threshold::ErrorThreshold;

    use crate::dictionary::DEFAULT_PMT_ENTRIES;

    const N: usize = 4;

    fn config() -> DiConfig {
        DiConfig::for_nodes(N)
    }

    /// Runs blocks from node 0's encoder to node 1's decoder, delivering
    /// notifications instantly, and returns the decoded blocks.
    fn run_pair(
        enc: &mut DiEncoder,
        dec: &mut DiDecoder,
        blocks: &[CacheBlock],
    ) -> Vec<CacheBlock> {
        let dest = NodeId(1);
        let src = NodeId(0);
        let mut out = Vec::new();
        for b in blocks {
            let e = enc.encode(b, dest);
            let r = dec.decode(&e, src);
            for (to, note) in r.notifications {
                assert_eq!(to, src, "single-pair test notifies only the source");
                enc.apply_notification(dest, note);
            }
            out.push(r.block);
        }
        out
    }

    #[test]
    fn di_comp_learns_and_compresses() {
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        let block = CacheBlock::from_i32(&[0x7777, 0x7777, 0x7777, 0x7777]);
        // First block: all raw (learning); after the install, hits.
        let out = run_pair(&mut enc, &mut dec, &[block.clone(), block.clone()]);
        assert_eq!(out[0], block);
        assert_eq!(out[1], block);
        let e = enc.encode(&block, NodeId(1));
        let s = e.stats();
        assert_eq!(s.exact_encoded, 4, "all words compress after learning");
        assert_eq!(e.payload_bits(), 4 * 4); // 1 flag + 3 index bits each
        assert_eq!(enc.name(), "DI-COMP");
    }

    #[test]
    fn di_comp_is_lossless() {
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(7);
        let blocks: Vec<CacheBlock> = (0..50)
            .map(|_| {
                // Skewed value distribution so the dictionary gets traction.
                let words: Vec<i32> = (0..8).map(|_| (rng.below(6) * 1000) as i32).collect();
                CacheBlock::from_i32(&words).with_approximable(false)
            })
            .collect();
        let out = run_pair(&mut enc, &mut dec, &blocks);
        for (i, (got, want)) in out.iter().zip(&blocks).enumerate() {
            assert_eq!(got, want, "block {i} corrupted");
        }
        assert_eq!(dec.races(), 0);
    }

    #[test]
    fn di_vaxx_approximates_close_values() {
        let t = ErrorThreshold::from_percent(10).unwrap();
        let mut enc = DiEncoder::di_vaxx(config(), Avcl::new(t));
        let mut dec = DiDecoder::new(config());
        assert!(enc.is_vaxx());
        // Teach the dictionary the pattern 10_000.
        let teach = CacheBlock::from_i32(&[10_000; 4]);
        run_pair(&mut enc, &mut dec, &[teach.clone(), teach]);
        // Now a close value compresses approximately.
        let close = CacheBlock::from_i32(&[10_100, 10_000, 9_900, 10_050]);
        let e = enc.encode(&close, NodeId(1));
        let s = e.stats();
        assert!(
            s.approx_encoded >= 2,
            "close values should hit the TCAM: {s:?}"
        );
        let d = dec.decode(&e, NodeId(0)).block;
        for (p, a) in close.words().iter().zip(d.words()) {
            let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
            assert!(err <= 0.10, "{p} -> {a}");
        }
    }

    #[test]
    fn di_vaxx_exact_path_for_precise_blocks() {
        let t = ErrorThreshold::from_percent(20).unwrap();
        let mut enc = DiEncoder::di_vaxx(config(), Avcl::new(t));
        let mut dec = DiDecoder::new(config());
        let teach = CacheBlock::from_i32(&[5_000; 4]).with_approximable(false);
        run_pair(&mut enc, &mut dec, &[teach.clone(), teach]);
        // A precise block with a merely-close value must NOT compress...
        let precise = CacheBlock::from_i32(&[5_001; 4]).with_approximable(false);
        let e = enc.encode(&precise, NodeId(1));
        assert_eq!(e.stats().raw, 4);
        // ...but the exact original still does, via the original-pattern
        // storage (Figure 8), and decodes bit-exactly.
        let exact = CacheBlock::from_i32(&[5_000; 4]).with_approximable(false);
        let e2 = enc.encode(&exact, NodeId(1));
        assert_eq!(e2.stats().exact_encoded, 4);
        let d = dec.decode(&e2, NodeId(0)).block;
        assert_eq!(d, exact);
    }

    #[test]
    fn per_destination_isolation() {
        let mut enc = DiEncoder::di_comp(config());
        // Install for destination 1 only.
        enc.apply_notification(
            NodeId(1),
            Notification::Install {
                pattern: 123,
                index: 0,
                dtype: DataType::Int,
            },
        );
        let block = CacheBlock::from_i32(&[123]).with_approximable(false);
        assert_eq!(enc.encode(&block, NodeId(1)).stats().exact_encoded, 1);
        assert_eq!(enc.encode(&block, NodeId(2)).stats().raw, 1);
    }

    #[test]
    fn notification_roundtrip_keeps_tables_consistent() {
        let cfg = DiConfig {
            pmt_entries: 2,
            ..config()
        };
        let mut enc = DiEncoder::di_comp(cfg);
        let mut dec = DiDecoder::new(cfg);
        // Cycle through 3 patterns in a 2-entry PMT to force evictions.
        let mut blocks = Vec::new();
        for round in 0..6 {
            let v = 1000 * (round % 3 + 1);
            blocks.push(CacheBlock::from_i32(&[v; 4]).with_approximable(false));
        }
        let out = run_pair(&mut enc, &mut dec, &blocks);
        for (got, want) in out.iter().zip(&blocks) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn decoder_learns_from_raw_words_only() {
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        let block = CacheBlock::from_i32(&[0xAA; 4]);
        run_pair(&mut enc, &mut dec, &[block.clone(), block.clone()]);
        let before = dec.activity().notifications;
        // Fully compressed traffic produces no new notifications.
        let e = enc.encode(&block, NodeId(1));
        assert_eq!(e.stats().exact_encoded, 4);
        dec.decode(&e, NodeId(0));
        assert_eq!(dec.activity().notifications, before);
    }

    #[test]
    fn index_bit_width() {
        assert_eq!(index_bits(8), 3);
        assert_eq!(index_bits(16), 4);
        assert_eq!(index_bits(2), 1);
    }

    #[test]
    fn default_latencies_match_paper() {
        let enc = DiEncoder::di_comp(config());
        let dec = DiDecoder::new(config());
        assert_eq!(enc.compression_latency(), 3);
        assert_eq!(dec.decompression_latency(), 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_learned_state() {
        use anoc_core::snap::{SnapReader, SnapWriter};
        // Train a pair, snapshot it, restore into fresh instances, and check
        // the restored pair behaves exactly like the original from there on.
        let t = ErrorThreshold::from_percent(10).unwrap();
        let mut enc = DiEncoder::di_vaxx(config(), Avcl::new(t));
        let mut dec = DiDecoder::new(config());
        let teach = CacheBlock::from_i32(&[10_000; 4]);
        run_pair(&mut enc, &mut dec, &[teach.clone(), teach]);

        let mut w = SnapWriter::new();
        enc.save_state(&mut w);
        dec.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut enc2 = DiEncoder::di_vaxx(config(), Avcl::new(t));
        let mut dec2 = DiDecoder::new(config());
        let mut r = SnapReader::new(&bytes);
        enc2.load_state(&mut r).unwrap();
        dec2.load_state(&mut r).unwrap();
        assert!(r.is_exhausted());

        let probe = CacheBlock::from_i32(&[10_100, 10_000, 9_900, 10_050]);
        let a = enc.encode(&probe, NodeId(1));
        let b = enc2.encode(&probe, NodeId(1));
        assert_eq!(a.codes(), b.codes(), "restored encoder diverged");
        assert_eq!(
            dec.decode(&a, NodeId(0)).block,
            dec2.decode(&b, NodeId(0)).block
        );
        assert_eq!(enc.activity(), enc2.activity());
        // Re-serializing the restored pair yields the original bytes... only
        // after accounting for the probe encode above, so snapshot again.
        let mut w1 = SnapWriter::new();
        enc.save_state(&mut w1);
        dec.save_state(&mut w1);
        let mut w2 = SnapWriter::new();
        enc2.save_state(&mut w2);
        dec2.save_state(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn snapshot_rejects_mismatched_geometry() {
        let enc = DiEncoder::di_comp(config());
        let mut w = anoc_core::snap::SnapWriter::new();
        enc.save_state(&mut w);
        let bytes = w.into_bytes();
        // A table sized for a different node count must refuse the blob.
        let other = DiConfig::for_nodes(N + 1);
        let mut enc2 = DiEncoder::di_comp(other);
        // Empty-entry tables serialize no dest vectors, so grow an entry
        // first to exercise the width check.
        let mut enc3 = DiEncoder::di_comp(config());
        enc3.apply_notification(
            NodeId(1),
            Notification::Install {
                pattern: 42,
                index: 0,
                dtype: anoc_core::data::DataType::Int,
            },
        );
        let mut w3 = anoc_core::snap::SnapWriter::new();
        enc3.save_state(&mut w3);
        let bytes3 = w3.into_bytes();
        let mut r3 = anoc_core::snap::SnapReader::new(&bytes3);
        assert!(enc2.load_state(&mut r3).is_err());
        // Truncated stream is a typed error, not a panic.
        let mut short = anoc_core::snap::SnapReader::new(&bytes[..bytes.len() - 1]);
        let mut enc4 = DiEncoder::di_comp(config());
        assert!(enc4.load_state(&mut short).is_err());
    }

    /// A decoder blob: one live slot whose valid-bit vector claims `width`
    /// nodes, followed by nothing.
    fn decoder_blob_with_valid_width(width: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(DEFAULT_PMT_ENTRIES);
        w.bool(true);
        w.u32(0xCAFE);
        w.u32(2);
        w.u64(width);
        w.into_bytes()
    }

    #[test]
    fn corrupt_valid_width_is_a_typed_error() {
        // Huge widths must be refused before any valid bit is read or any
        // buffer is sized from them.
        for width in [1 << 40, u64::MAX] {
            let blob = decoder_blob_with_valid_width(width);
            let mut dec = DiDecoder::new(config());
            let err = dec.load_state(&mut SnapReader::new(&blob)).unwrap_err();
            assert!(matches!(err, SnapError::Invalid(_)), "{width}: {err:?}");
        }
    }

    /// A decoder blob with no live slots and one candidate row holding
    /// `count` sightings.
    fn decoder_blob_with_candidate_count(count: u32) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(DEFAULT_PMT_ENTRIES);
        (0..DEFAULT_PMT_ENTRIES).for_each(|_| w.bool(false));
        w.usize(1);
        w.u32(0xBEEF);
        w.u32(count);
        w.u64(0); // races
        w.u64(0); // words seen
        CodecActivity::default().save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn candidate_rows_must_hold_one_sighting() {
        let mut dec = DiDecoder::new(config());
        let one = decoder_blob_with_candidate_count(1);
        dec.load_state(&mut SnapReader::new(&one)).unwrap();
        for count in [0, 2, 7] {
            let blob = decoder_blob_with_candidate_count(count);
            let err = dec.load_state(&mut SnapReader::new(&blob)).unwrap_err();
            assert!(matches!(err, SnapError::Invalid(_)), "{count}: {err:?}");
        }
    }

    /// The snapshot bytes of a DI-COMP pair after each block of `blocks`.
    fn states(blocks: &[CacheBlock]) -> Vec<Vec<u8>> {
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        blocks
            .iter()
            .map(|b| {
                run_pair(&mut enc, &mut dec, std::slice::from_ref(b));
                let mut w = SnapWriter::new();
                enc.save_state(&mut w);
                dec.save_state(&mut w);
                w.into_bytes()
            })
            .collect()
    }

    /// Five-word blocks of a few recurring values, so tables fill and
    /// frequency counters move.
    fn recurring_blocks(n: usize) -> Vec<CacheBlock> {
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(11);
        (0..n)
            .map(|_| {
                let words: Vec<i32> = (0..5).map(|_| 1000 * rng.below(12) as i32).collect();
                CacheBlock::from_i32(&words).with_approximable(false)
            })
            .collect()
    }

    #[test]
    fn restored_codecs_decay_on_the_uninterrupted_word() {
        // 1700 five-word blocks cross the decays at words 4096 and 8192; the
        // split at 900 blocks (4500 words) restores 404 words into the
        // second interval, so a clock restarted on restore would decay 404
        // words late, at word 8596, past the end of the stream.
        let blocks = recurring_blocks(1700);
        let uninterrupted = states(&blocks);
        let split = 900;
        assert_eq!((split as u64 * 5) % DECAY_INTERVAL, 404);
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        run_pair(&mut enc, &mut dec, &blocks[..split]);
        let mut w = SnapWriter::new();
        enc.save_state(&mut w);
        dec.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, uninterrupted[split - 1]);
        let mut enc = DiEncoder::di_comp(config());
        let mut dec = DiDecoder::new(config());
        let mut r = SnapReader::new(&bytes);
        enc.load_state(&mut r).unwrap();
        dec.load_state(&mut r).unwrap();
        for (i, b) in blocks.iter().enumerate().skip(split) {
            run_pair(&mut enc, &mut dec, std::slice::from_ref(b));
            let mut w = SnapWriter::new();
            enc.save_state(&mut w);
            dec.save_state(&mut w);
            assert_eq!(w.into_bytes(), uninterrupted[i], "block {i}");
        }
    }

    #[test]
    fn set_error_threshold_retargets_vaxx_only() {
        let tight = ErrorThreshold::from_percent(1).unwrap();
        let wide = ErrorThreshold::from_percent(10).unwrap();
        let install = Notification::Install {
            pattern: 10_000,
            index: 0,
            dtype: DataType::Int,
        };
        let mut enc = DiEncoder::di_vaxx(config(), Avcl::new(tight));
        enc.apply_notification(NodeId(1), install);
        // 1%: a value 1% away misses the narrow TCAM key.
        let probe = CacheBlock::from_i32(&[10_100; 4]);
        assert_eq!(enc.encode(&probe, NodeId(1)).stats().raw, 4);
        enc.set_error_threshold(wide);
        // Retargeting reprograms the mask plane: the key installed under the
        // 1% APCL now matches with the 10% tolerance, as if the global
        // threshold register of the TCAM had been rewritten.
        assert_eq!(enc.encode(&probe, NodeId(1)).stats().approx_encoded, 4);
        // Retargeting back down restores the narrow mask (idempotent rewrite
        // from the stored install-time pattern).
        enc.set_error_threshold(tight);
        assert_eq!(enc.encode(&probe, NodeId(1)).stats().raw, 4);
        enc.set_error_threshold(wide);
        assert_eq!(enc.encode(&probe, NodeId(1)).stats().approx_encoded, 4);
        // DI-COMP ignores the hook entirely.
        let mut exact = DiEncoder::di_comp(config());
        exact.set_error_threshold(wide);
        assert!(!exact.is_vaxx());
    }
}
