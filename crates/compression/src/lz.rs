//! LZ-VAXX: a streaming approximate-LZ dictionary codec — the third
//! compression mechanism next to FP-VAXX and DI-VAXX.
//!
//! Where the paper's mechanisms match one word at a time against a static
//! table (FP) or a learned per-word dictionary (DI), LZ-VAXX matches *across
//! word boundaries within a cache block*: each code either ships a word raw
//! or back-references a run of words in the window formed by a small static
//! seed dictionary plus the already-reconstructed prefix of the same block,
//! at most `WINDOW` (24) positions, so no distance exceeds 23. Candidates
//! come from one position mask per hash bucket of the window, distances are
//! ranked by a move-to-front recency list so hot distances ship in a short
//! code, and — the VAXX part — a candidate match is accepted when every
//! covered word lies inside the probe word's own AVCL don't-care pattern, so
//! the per-word error bound of the mechanism is identical to DI-VAXX's
//! strict confirm and the end-to-end bound auditor sees zero violations. At
//! threshold 0 every accept degenerates to bit equality and the round trip
//! is exact.
//!
//! Keeping the window intra-block makes the decoder stateless across blocks:
//! encoder and decoder cannot diverge, so no install/invalidate notification
//! protocol is needed. The only persistent encoder state is the seed
//! dictionary, which doubles as the table-fault injection site.

use anoc_core::avcl::Avcl;
use anoc_core::codec::{
    BlockDecoder, BlockEncoder, CodecActivity, DecodeResult, EncodedBlock, WordCode,
};
use anoc_core::data::{CacheBlock, NodeId, BLOCK_WORDS};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;

use crate::fpc;

/// The static seed dictionary logically prepended to every block's window.
/// Both sides hold it, so the very first words of a block can already match.
/// Slot values are the classic hot patterns of compressed-NoC traffic.
pub const SEED_DICT: [u32; 8] = [
    0x0000_0000, // zero, the dominant word in every workload
    0xFFFF_FFFF, // -1 / all-ones
    0x0000_0001,
    0x8000_0000,
    0x3F80_0000, // 1.0f32
    0xBF80_0000, // -1.0f32
    0x0101_0101,
    0x7FFF_FFFF,
];

/// Wire width of the distance field when the distance sits in the MTF
/// recency list's short slots: 1 rank flag + 2 slot-index bits.
const SHORT_DIST_BITS: u8 = 3;

/// Wire width of the distance field otherwise: 1 rank flag + 6 distance bits.
const FULL_DIST_BITS: u8 = 7;

/// Longest back-reference, in words: the 3-bit length field caps at 8.
const MAX_MATCH: usize = 8;

/// Candidate positions probed per anchor word before giving up.
const CHAIN_DEPTH: usize = 16;

/// Window positions: the seed dictionary followed by one line.
const WINDOW: usize = SEED_DICT.len() + BLOCK_WORDS;

// Every window position is one bit of a `u32` bucket mask.
const _: () = assert!(WINDOW <= u32::BITS as usize);

// The farthest back-reference, from the last window position to the first,
// fits the full distance field's 6 bits (room for 64).
const _: () = assert!(WINDOW - 1 <= 1 << (FULL_DIST_BITS - 1));

/// log2 of the number of match-finder buckets.
const BUCKET_BITS: u32 = 8;

/// The bucket of `word`, keyed on its high halfword. A DI-VAXX-style
/// don't-care mask is a contiguous low-bit run of at most 16 bits, so every
/// candidate a probe word can accept under one agrees with it on the high
/// halfword and shares its bucket. Wider masks (enormous magnitudes at high
/// thresholds) may miss candidates in other buckets; that costs compression,
/// never correctness, because every candidate is confirmed word by word.
#[inline]
fn bucket(word: u32) -> usize {
    ((word >> 16).wrapping_mul(0x9E37_79B1) >> (32 - BUCKET_BITS)) as usize
}

/// The positions set in `mask`, highest (newest) first.
#[inline]
fn newest_first(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pos = mask.ilog2();
            mask ^= 1 << pos;
            pos as usize
        })
    })
}

/// MTF list positions that qualify for the short distance code (the 2
/// slot-index bits of [`SHORT_DIST_BITS`]).
const MTF_SHORT_SLOTS: usize = 4;

/// MTF list capacity.
const MTF_CAPACITY: usize = 16;

/// The LZ-VAXX encoder. Its per-block scratch (window, bucket masks, MTF
/// list, don't-care masks) lives in local arrays that each `encode` starts
/// afresh, so no encode allocates; only the seed dictionary persists.
#[derive(Debug, Clone)]
pub struct LzEncoder {
    avcl: Avcl,
    seed: [u32; 8],
    activity: CodecActivity,
}

impl LzEncoder {
    /// Creates an LZ-VAXX encoder with the given AVCL (exact threshold makes
    /// it a lossless LZ).
    pub fn lz_vaxx(avcl: Avcl) -> Self {
        LzEncoder {
            avcl,
            seed: SEED_DICT,
            activity: CodecActivity::default(),
        }
    }
}

/// A move-to-front recency ranking of match distances, rebuilt per block:
/// the most recent distance first, at most [`MTF_CAPACITY`] of them. The
/// slots past the list's end hold 0, which no distance is.
struct Mtf([u16; MTF_CAPACITY]);

impl Mtf {
    /// Ranks `distance` (its position in the list before the move, if it
    /// was there), then moves it to the front; the list keeps its
    /// [`MTF_CAPACITY`] most recent distances. Both steps compare and shift
    /// every slot, with no per-slot branch.
    #[inline]
    fn rank_and_promote(&mut self, distance: u16) -> Option<usize> {
        let old = self.0;
        let hits = (0..MTF_CAPACITY).fold(0u32, |m, j| m | u32::from(old[j] == distance) << j);
        let rank = (hits != 0).then(|| hits.trailing_zeros() as usize);
        let end = rank.unwrap_or(MTF_CAPACITY - 1);
        self.0 = std::array::from_fn(|j| match j {
            0 => distance,
            j if j <= end => old[j - 1],
            j => old[j],
        });
        rank
    }
}

impl BlockEncoder for LzEncoder {
    fn name(&self) -> &'static str {
        "LZ-VAXX"
    }

    fn encode(&mut self, block: &CacheBlock, _dest: NodeId) -> EncodedBlock {
        let approx_on = block.is_approximable() && !self.avcl.threshold().is_exact();
        let (words, dtype) = (block.words(), block.dtype());
        let n = words.len();
        let seed_len = self.seed.len();

        // The window as the paired decoder rebuilds it: the seed, then the
        // block's decoded words, word `k` at position `seed_len + k`. Bit `p`
        // of `buckets[b]` is set once position `p`'s word, hashing to bucket
        // `b`, is in the window.
        let mut window = [0; WINDOW];
        let mut buckets = [0u32; 1 << BUCKET_BITS];
        for (pos, &w) in self.seed.iter().enumerate() {
            window[pos] = w;
            buckets[bucket(w)] |= 1 << pos;
        }
        // Activity counted in locals, added to the counters once.
        let (mut cam, mut tcam, mut avcl_ops) = (0u64, 0u64, 0u64);
        let mut table_updates = seed_len as u64;

        // Word `k`'s AVCL don't-care mask is `dont_care[k]`, for every word
        // before `masked`, computed eight words at a time (all zero when
        // approximation is off).
        let mut dont_care = [0u32; BLOCK_WORDS];
        let mut masked = 0;
        let mut mtf = Mtf([0; MTF_CAPACITY]);
        let mut line = [EncodedBlock::FILL; BLOCK_WORDS];
        let mut len = 0;
        let mut i = 0;
        while i < n {
            let word = words[i];
            let cur = seed_len + i;
            let cap = MAX_MATCH.min(n - i);
            while approx_on && masked < i + cap {
                let group = &words[masked..n.min(masked + 8)];
                let lanes = <[u32; 8]>::try_from(group).unwrap_or_else(|_| fpc::pad8(group));
                let pats = self.avcl.approx_pattern8(&lanes, dtype);
                for (mask, p) in dont_care[masked..].iter_mut().zip(&pats) {
                    *mask = p.mask();
                }
                masked += 8;
            }
            let masks = match approx_on {
                true => &dont_care[i..],
                false => &[0; MAX_MATCH][..],
            };
            let probe = words[i..i + cap].iter().zip(masks);
            cam += 1;
            let (mut best_len, mut best_distance, mut best_approx) = (0, 0, false);
            // The candidates: every earlier position of the word's bucket.
            for pos in newest_first(buckets[bucket(word)]).take(CHAIN_DEPTH) {
                tcam += u64::from(approx_on);
                // Longest acceptable match at `pos`. A window word is an
                // acceptable stand-in when it lies inside the probe word's
                // don't-care pattern (bit equality when approximation is
                // off). An overlapped copy repeats with period `cur - pos`:
                // the value the decoder materialises at offset `len` is the
                // window word at `pos + len % (cur - pos)`, which is always
                // already decoded.
                let (mut len, mut src, mut any_approx) = (0, pos, false);
                for (&w, &mask) in probe.clone() {
                    let cand = window[src];
                    let differs = w != cand;
                    avcl_ops += u64::from(approx_on & differs);
                    if (w ^ cand) & !mask != 0 {
                        break;
                    }
                    any_approx |= differs;
                    len += 1;
                    src = if src + 1 == cur { pos } else { src + 1 };
                }
                if len > best_len {
                    (best_len, best_distance, best_approx) = (len, cur - pos, any_approx);
                    if len == cap {
                        break;
                    }
                }
            }
            table_updates += 1;
            if best_len > 0 {
                let distance = best_distance as u16;
                let dist_bits = match mtf.rank_and_promote(distance) {
                    Some(k) if k < MTF_SHORT_SLOTS => SHORT_DIST_BITS,
                    _ => FULL_DIST_BITS,
                };
                // The overlapped copy, exactly as the decoder replays it.
                for k in cur..cur + best_len {
                    let v = window[k - best_distance];
                    window[k] = v;
                    buckets[bucket(v)] |= 1 << k;
                }
                line[len] = WordCode::Match {
                    distance,
                    len: best_len as u8,
                    dist_bits,
                    approx: best_approx,
                };
                i += best_len;
            } else {
                window[cur] = word;
                buckets[bucket(word)] |= 1 << cur;
                line[len] = WordCode::Raw {
                    word,
                    prefix_bits: 2,
                };
                i += 1;
            }
            len += 1;
        }
        self.activity.words_encoded += n as u64;
        self.activity.cam_searches += cam;
        self.activity.tcam_searches += tcam;
        self.activity.avcl_ops += avcl_ops;
        self.activity.table_updates += table_updates;
        EncodedBlock::from_line(line, len, dtype, block.is_approximable())
    }

    /// Two matching cycles, one MTF ranking cycle, one encoding cycle: one
    /// more than the single-word mechanisms pay (§4.3 provisions three), the
    /// price of cross-word match extension.
    fn compression_latency(&self) -> u64 {
        4
    }

    fn activity(&self) -> CodecActivity {
        self.activity
    }

    /// Flips one bit of one seed-dictionary slot. The encoder keeps matching
    /// against the corrupted slot while every decoder reconstructs from its
    /// pristine copy — the same silent-data-corruption mode as a DI PMT soft
    /// error.
    fn inject_table_fault(&mut self, entropy: u64) -> bool {
        let slot = (entropy as usize) % self.seed.len();
        let bit = ((entropy >> 40) % u32::BITS as u64) as u32;
        self.seed[slot] ^= 1 << bit;
        true
    }

    fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        self.avcl = Avcl::new(threshold);
    }

    // The window, bucket masks and MTF ranker reset per block; the seed
    // dictionary (mutable only through fault injection) and the activity
    // counters are the whole cross-block state.
    fn save_state(&self, w: &mut SnapWriter) {
        for &s in &self.seed {
            w.u32(s);
        }
        self.activity.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for s in &mut self.seed {
            *s = r.u32()?;
        }
        self.activity = CodecActivity::load(r)?;
        Ok(())
    }
}

/// The LZ-VAXX decoder: replays raw words and back-reference copies against
/// its own window (pristine seed + decoded prefix), a local array that each
/// decode starts afresh. Stateless across blocks: only the activity counters
/// persist.
#[derive(Debug, Clone)]
pub struct LzDecoder {
    activity: CodecActivity,
}

impl LzDecoder {
    /// Creates an LZ-VAXX decoder.
    pub fn new() -> Self {
        LzDecoder {
            activity: CodecActivity::default(),
        }
    }
}

impl Default for LzDecoder {
    fn default() -> Self {
        LzDecoder::new()
    }
}

impl BlockDecoder for LzDecoder {
    fn name(&self) -> &'static str {
        "LZ-decoder"
    }

    /// Codes that expand past one line (a hand-built or restored block's
    /// matches) are cut at [`BLOCK_WORDS`] words.
    fn decode(&mut self, encoded: &EncodedBlock, _src: NodeId) -> DecodeResult {
        // The window is the seed dictionary followed by the block decoded so
        // far, whose next word goes to position `cur`.
        const SEED: usize = SEED_DICT.len();
        let mut window = [0; WINDOW];
        window[..SEED].copy_from_slice(&SEED_DICT);
        let mut cur = SEED;
        for code in encoded.codes() {
            match *code {
                WordCode::Raw { word, .. } => {
                    let Some(slot) = window.get_mut(cur) else {
                        break;
                    };
                    *slot = word;
                    cur += 1;
                }
                WordCode::Match { distance, len, .. } => {
                    let distance = usize::from(distance);
                    let end = (cur + usize::from(len)).min(WINDOW);
                    // The encoder never emits a distance before the window;
                    // if one ever slips, its words keep the window's zeros.
                    let valid = (1..=cur).contains(&distance);
                    debug_assert!(valid, "invalid LZ distance {distance}");
                    if valid {
                        for k in cur..end {
                            window[k] = window[k - distance];
                        }
                    }
                    cur = end;
                }
                ref other => {
                    unreachable!("LZ stream cannot contain {other:?}")
                }
            }
        }
        let len = cur - SEED;
        self.activity.words_decoded += len as u64;
        let mut line = [CacheBlock::FILL; BLOCK_WORDS];
        line.copy_from_slice(&window[SEED..]);
        let block = CacheBlock::from_line(line, len, encoded.dtype(), encoded.is_approximable());
        DecodeResult {
            block,
            notifications: Vec::new(),
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

    fn enc(pct: u32) -> LzEncoder {
        let a = if pct == 0 {
            Avcl::new(ErrorThreshold::exact())
        } else {
            avcl(pct)
        };
        LzEncoder::lz_vaxx(a)
    }

    fn roundtrip(e: &mut LzEncoder, block: &CacheBlock) -> CacheBlock {
        let encoded = e.encode(block, NodeId(1));
        LzDecoder::new().decode(&encoded, NodeId(0)).block
    }

    fn raw(word: u32) -> WordCode {
        WordCode::Raw {
            word,
            prefix_bits: 2,
        }
    }

    /// An exact back-reference whose distance is not in the MTF list.
    fn copy(distance: u16, len: u8) -> WordCode {
        WordCode::Match {
            distance,
            len,
            dist_bits: FULL_DIST_BITS,
            approx: false,
        }
    }

    #[test]
    fn threshold_zero_roundtrip_is_exact() {
        let mut e = enc(0);
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(0x12);
        for _ in 0..100 {
            let words: Vec<i32> = (0..16)
                .map(|_| (rng.next_u32() >> rng.below(28)) as i32)
                .collect();
            let block = CacheBlock::from_i32(&words);
            assert_eq!(roundtrip(&mut e, &block), block);
        }
        assert_eq!(BlockEncoder::name(&e), "LZ-VAXX");
    }

    #[test]
    fn repeated_words_become_back_references() {
        let mut e = enc(0);
        let block = CacheBlock::from_i32(&[0xBEEF; 16]);
        let encoded = e.encode(&block, NodeId(1));
        // One raw literal, then overlapped distance-1 runs.
        assert!(matches!(
            encoded.codes()[0],
            WordCode::Raw { word: 0xBEEF, .. }
        ));
        assert!(encoded.codes()[1..]
            .iter()
            .all(|c| matches!(c, WordCode::Match { distance: 1, .. })));
        assert_eq!(encoded.word_count(), 16);
        assert!(
            encoded.payload_bits() < 16 * 32 / 4,
            "{}",
            encoded.payload_bits()
        );
        assert_eq!(roundtrip(&mut e, &block), block);
    }

    #[test]
    fn zeros_match_the_seed_dictionary_immediately() {
        let mut e = enc(0);
        let block = CacheBlock::from_i32(&[0; 16]);
        let encoded = e.encode(&block, NodeId(1));
        // No raw literal needed: the first zero back-references the seed.
        assert!(encoded.codes().iter().all(|c| c.is_encoded()));
        assert_eq!(roundtrip(&mut e, &block), block);
        let s = encoded.stats();
        assert_eq!(s.exact_encoded, 16);
        assert_eq!(s.raw, 0);
    }

    #[test]
    fn cross_word_pattern_matches() {
        // An A B A B A B... stream: per-word dictionaries need two installs;
        // LZ captures it with one distance-2 overlapped match.
        let mut e = enc(0);
        let words: Vec<i32> = (0..16)
            .map(|i| if i % 2 == 0 { 0x1234_0000 } else { 0x0F0F_0F0F })
            .collect();
        let block = CacheBlock::from_i32(&words);
        let encoded = e.encode(&block, NodeId(1));
        assert_eq!(roundtrip(&mut e, &block), block);
        assert!(encoded
            .codes()
            .iter()
            .any(|c| matches!(c, WordCode::Match { distance: 2, len, .. } if *len > 2)));
    }

    #[test]
    fn approximation_respects_threshold() {
        let mut e = enc(10);
        let mut dec = LzDecoder::new();
        let mut rng = anoc_core::rng::Pcg32::seed_from_u64(0x77);
        for _ in 0..200 {
            let words: Vec<i32> = (0..16)
                .map(|_| (rng.next_u32() >> rng.below(24)) as i32)
                .collect();
            let block = CacheBlock::from_i32(&words);
            let encoded = e.encode(&block, NodeId(1));
            let d = dec.decode(&encoded, NodeId(0)).block;
            for (p, a) in block.words().iter().zip(d.words()) {
                let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
                assert!(err <= 0.10 + 1e-12, "word {p:#x} -> {a:#x} err {err}");
            }
        }
    }

    #[test]
    fn float_blocks_respect_threshold_and_specials() {
        let mut e = enc(10);
        let mut dec = LzDecoder::new();
        let vals = [0.0f32, 1.0, 1.01, -1.0, 2.5, 2.52, f32::INFINITY, 0.0];
        let block = CacheBlock::from_f32(&vals);
        let encoded = e.encode(&block, NodeId(1));
        let d = dec.decode(&encoded, NodeId(0)).block;
        for (p, a) in block.as_f32().iter().zip(d.as_f32()) {
            if p.is_finite() && *p != 0.0 {
                assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
            } else {
                assert_eq!(p.to_bits(), a.to_bits(), "specials must be exact");
            }
        }
    }

    #[test]
    fn non_approximable_blocks_are_exact() {
        let mut e = enc(25);
        let block = CacheBlock::precise(vec![100, 101, 100, 101, 100, 101]);
        let encoded = e.encode(&block, NodeId(1));
        assert!(encoded.codes().iter().all(|c| !c.is_approx()));
        assert_eq!(roundtrip(&mut e, &block), block);
    }

    #[test]
    fn approximate_matches_are_flagged() {
        let mut e = enc(25);
        // 1000 then 1005: the second word is absorbed into the first's
        // don't-care pattern (range 250 -> 7 bits) as an approximate match.
        let block = CacheBlock::from_i32(&[1000, 1005]);
        let encoded = e.encode(&block, NodeId(1));
        let s = encoded.stats();
        assert_eq!(s.approx_encoded, 1, "{:?}", encoded.codes());
        let d = LzDecoder::new().decode(&encoded, NodeId(0)).block;
        assert_eq!(d.words(), vec![1000, 1000]);
    }

    #[test]
    fn mtf_ranking_shortens_repeated_distances() {
        let mut e = enc(0);
        // Alternate two words so distance 2 recurs; after the first use the
        // MTF list must rank it short.
        let words: Vec<i32> = (0..16)
            .map(|i| if i % 2 == 0 { 0x0BAD_0001 } else { 0x0BAD_F00D })
            .collect();
        let block = CacheBlock::from_i32(&words);
        let encoded = e.encode(&block, NodeId(1));
        let dist_bits: Vec<u8> = encoded
            .codes()
            .iter()
            .filter_map(|c| match c {
                WordCode::Match { dist_bits, .. } => Some(*dist_bits),
                _ => None,
            })
            .collect();
        assert!(!dist_bits.is_empty());
        assert!(dist_bits[1..].contains(&SHORT_DIST_BITS), "{dist_bits:?}");
    }

    #[test]
    fn table_fault_corrupts_delivery() {
        let mut e = enc(0);
        let block = CacheBlock::from_i32(&[3; 4]);
        let encoded = e.encode(&block, NodeId(1));
        assert_eq!(encoded.codes(), [raw(3), copy(1, 3)]);
        assert_eq!(roundtrip(&mut e, &block), block);
        // Slot 2, bit 1: the encoder's seed word 1 becomes 3, so the first
        // word now matches it, and the pristine decoder copies a 1.
        assert!(e.inject_table_fault(2 | 1 << 40));
        let encoded = e.encode(&block, NodeId(1));
        assert_eq!(encoded.codes(), [copy(6, 1), copy(1, 3)]);
        let d = LzDecoder::new().decode(&encoded, NodeId(0)).block;
        assert_eq!(d.words(), [1; 4]);
    }

    #[test]
    fn probe_finds_a_word_differing_in_the_low_halfword() {
        // 0x0012_0005 shares its high halfword, so its bucket, with the
        // word two back, and lies inside its own 10% don't-care pattern.
        let mut e = enc(10);
        let block = CacheBlock::from_i32(&[0x0012_0000, 0x0BAD_0000, 0x0012_0005]);
        let encoded = e.encode(&block, NodeId(1));
        let approx = WordCode::Match {
            distance: 2,
            len: 1,
            dist_bits: FULL_DIST_BITS,
            approx: true,
        };
        assert_eq!(
            encoded.codes(),
            [raw(0x0012_0000), raw(0x0BAD_0000), approx]
        );
        let d = LzDecoder::new().decode(&encoded, NodeId(0)).block;
        assert_eq!(d.words(), [0x0012_0000, 0x0BAD_0000, 0x0012_0000]);
    }

    #[test]
    fn nearer_of_two_equal_matches_wins() {
        // The last word matches the words two and five back, one word
        // each: the newer candidate, probed first, is kept.
        let [a, b, c, d] = [0x0A00_0000, 0x0B00_0000, 0x0C00_0000, 0x0D00_0000];
        let mut e = enc(0);
        let block = CacheBlock::precise(vec![a, b, c, a, d, a]);
        let encoded = e.encode(&block, NodeId(1));
        assert_eq!(
            encoded.codes(),
            [raw(a), raw(b), raw(c), copy(3, 1), raw(d), copy(2, 1)]
        );
        assert_eq!(roundtrip(&mut e, &block), block);
    }

    #[test]
    fn a_probe_visits_at_most_chain_depth_candidates() {
        // Sixteen words with high halfword 0 share the bucket of the seed
        // words 0x0 and 0x1, and none matches another within its mask:
        // probe `i` has `2 + i` earlier positions in its bucket, and the
        // last one's 17 are cut to CHAIN_DEPTH. Recorded with the
        // hash-chain match finder; uncapped, the sum would be 152.
        let mut e = enc(10);
        let words: Vec<i32> = (1..=16).map(|k| k << 11).collect();
        let block = CacheBlock::from_i32(&words);
        let encoded = e.encode(&block, NodeId(1));
        assert!(encoded.codes().iter().all(|c| !c.is_encoded()));
        assert_eq!(e.activity().cam_searches, 16);
        assert_eq!(e.activity().tcam_searches, 151);
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut e = enc(10);
        let block = CacheBlock::from_i32(&[7, 7, 7, 7]);
        e.encode(&block, NodeId(1));
        let a = e.activity();
        assert_eq!(a.words_encoded, 4);
        assert!(a.cam_searches >= 1);
        assert!(a.table_updates > 0);
        let mut dec = LzDecoder::new();
        dec.decode(&e.encode(&block, NodeId(1)), NodeId(0));
        assert_eq!(dec.activity().words_decoded, 4);
    }

    #[test]
    fn codes_past_one_line_are_cut_at_sixteen_words() {
        // 2 + 8 + 8 + 1 + 5 = 24 words, as no encoder emits them: a
        // hand-built or restored block.
        let codes = vec![raw(1), raw(2), copy(2, 8), copy(10, 8), raw(3), copy(1, 5)];
        let encoded = EncodedBlock::new(codes, DataType::Int, true);
        assert_eq!(encoded.word_count(), 24);
        let mut dec = LzDecoder::new();
        let d = dec.decode(&encoded, NodeId(0)).block;
        let expect: Vec<u32> = (0..16).map(|k| 1 + k % 2).collect();
        assert_eq!(d.words(), expect);
        assert_eq!(dec.activity().words_decoded, 16);
    }

    #[test]
    fn latency_model() {
        let e = enc(0);
        let dec = LzDecoder::new();
        assert_eq!(e.compression_latency(), 4);
        assert_eq!(dec.decompression_latency(), 2);
    }
}
