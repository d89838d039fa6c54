//! Property-based tests: codec round-trips, threshold preservation and
//! dictionary consistency under arbitrary traffic.

use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
use anoc_compression::fp::{FpDecoder, FpEncoder};
use anoc_compression::fpc::{best_match, FpcClass};
use anoc_core::avcl::Avcl;
use anoc_core::codec::{BlockDecoder, BlockEncoder};
use anoc_core::data::{CacheBlock, DataType, NodeId, BLOCK_WORDS};
use anoc_core::threshold::ErrorThreshold;
use proptest::prelude::*;

pub fn int_block() -> impl Strategy<Value = CacheBlock> {
    prop::collection::vec(any::<i32>(), 1..=BLOCK_WORDS).prop_map(|v| CacheBlock::from_i32(&v))
}

fn skewed_block() -> impl Strategy<Value = CacheBlock> {
    // A mix of zeros, small values and repeated hot values — the regime
    // compression actually faces.
    prop::collection::vec(
        prop_oneof![
            Just(0i32),
            -128i32..=127,
            Just(424242),
            Just(-31000),
            any::<i32>(),
        ],
        1..=BLOCK_WORDS,
    )
    .prop_map(|v| CacheBlock::from_i32(&v))
}

proptest! {
    /// Exact FPC classification round-trips every word it accepts.
    #[test]
    fn fpc_exact_roundtrip(word in any::<u32>()) {
        if let Some((class, v)) = best_match(word, 0) {
            prop_assert_eq!(v, word, "exact match must not modify the word");
            if class != FpcClass::Zero {
                let adj = class.adjunct_of(v);
                prop_assert!(u64::from(adj) < (1u64 << class.adjunct_bits()));
                prop_assert_eq!(class.decode(adj), v);
            }
        }
    }

    /// Masked projection always satisfies the mask contract: the projected
    /// value agrees with the word outside the don't-care bits.
    #[test]
    fn fpc_projection_contract(word in any::<u32>(), k in 0u32..=31) {
        let mask = (1u32 << k) - 1;
        if let Some((_, v)) = best_match(word, mask) {
            prop_assert_eq!(v & !mask, word & !mask);
        }
    }

    /// FP-COMP is lossless on arbitrary blocks.
    #[test]
    fn fp_comp_lossless(block in int_block()) {
        let mut enc = FpEncoder::fp_comp();
        let mut dec = FpDecoder::new();
        let e = enc.encode(&block, NodeId(1));
        prop_assert_eq!(e.word_count() as usize, block.len());
        let d = dec.decode(&e, NodeId(0)).block;
        prop_assert_eq!(d, block);
    }

    /// FP-COMP never inflates a block beyond the 3-bit-per-word tag bound.
    #[test]
    fn fp_comp_bounded_expansion(block in int_block()) {
        let mut enc = FpEncoder::fp_comp();
        let e = enc.encode(&block, NodeId(1));
        prop_assert!(u64::from(e.payload_bits()) <= block.size_bits() + 3 * block.len() as u64);
    }

    /// FP-VAXX on non-approximable blocks is bit-exact.
    #[test]
    fn fp_vaxx_precise_path_lossless(block in int_block(), pct in 1u32..=100) {
        let block = block.with_approximable(false);
        let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
        let mut enc = FpEncoder::fp_vaxx(avcl);
        let d = FpDecoder::new().decode(&enc.encode(&block, NodeId(1)), NodeId(0)).block;
        prop_assert_eq!(d, block);
    }

    /// FP-VAXX never violates the error threshold on integer data.
    #[test]
    fn fp_vaxx_threshold_preserved(block in skewed_block(), pct in 1u32..=50) {
        let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
        let mut enc = FpEncoder::fp_vaxx(avcl);
        let mut dec = FpDecoder::new();
        let d = dec.decode(&enc.encode(&block, NodeId(1)), NodeId(0)).block;
        for (p, a) in block.words().iter().zip(d.words()) {
            let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
            prop_assert!(err <= pct as f64 / 100.0 + 1e-12, "{p:#x} -> {a:#x}");
        }
    }

    /// FP-VAXX float path: value error bounded, specials untouched.
    #[test]
    fn fp_vaxx_float_threshold(vals in prop::collection::vec(prop::num::f32::NORMAL, 1..=BLOCK_WORDS)) {
        let avcl = Avcl::new(ErrorThreshold::from_percent(10).unwrap());
        let mut enc = FpEncoder::fp_vaxx(avcl);
        let mut dec = FpDecoder::new();
        let block = CacheBlock::from_f32(&vals);
        let d = dec.decode(&enc.encode(&block, NodeId(1)), NodeId(0)).block;
        for (p, a) in vals.iter().zip(d.as_f32()) {
            prop_assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
        }
    }

    /// DI-COMP is lossless under arbitrary streams with the notification
    /// protocol in the loop (encoder and decoder stay consistent).
    #[test]
    fn di_comp_lossless_stream(blocks in prop::collection::vec(skewed_block(), 1..30)) {
        let cfg = DiConfig::for_nodes(4);
        let mut enc = DiEncoder::di_comp(cfg);
        let mut dec = DiDecoder::new(cfg);
        for block in &blocks {
            let block = block.clone().with_approximable(false);
            let e = enc.encode(&block, NodeId(1));
            let r = dec.decode(&e, NodeId(0));
            prop_assert_eq!(&r.block, &block);
            for (_, note) in r.notifications {
                enc.apply_notification(NodeId(1), note);
            }
        }
        // Note: `dec.races()` may be non-zero — a raw word early in a block
        // can evict a pattern that a Dict code later in the same block still
        // references (encoded against the pre-block table). The protocol
        // resolves it, and the losslessness assertions above prove it did.
    }

    /// DI-VAXX (strict) never violates the threshold on approximable data
    /// and stays lossless on precise data, within one stream.
    #[test]
    fn di_vaxx_mixed_stream(
        blocks in prop::collection::vec((skewed_block(), any::<bool>()), 1..25),
        pct in 5u32..=25,
    ) {
        let cfg = DiConfig::for_nodes(4);
        let t = ErrorThreshold::from_percent(pct).unwrap();
        let mut enc = DiEncoder::di_vaxx(cfg, Avcl::new(t));
        let mut dec = DiDecoder::new(cfg);
        for (block, approx) in &blocks {
            let block = block.clone().with_approximable(*approx);
            let e = enc.encode(&block, NodeId(1));
            let r = dec.decode(&e, NodeId(0));
            if *approx {
                for (p, a) in block.words().iter().zip(r.block.words()) {
                    let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
                    prop_assert!(err <= pct as f64 / 100.0 + 1e-12);
                }
            } else {
                prop_assert_eq!(&r.block, &block);
            }
            for (_, note) in r.notifications {
                enc.apply_notification(NodeId(1), note);
            }
        }
    }
}

mod lz_properties {
    use super::*;
    use anoc_compression::lz::{LzDecoder, LzEncoder};
    use anoc_core::codec::WordCode;

    fn lz_at(pct: u32) -> LzEncoder {
        let t = if pct == 0 {
            ErrorThreshold::exact()
        } else {
            ErrorThreshold::from_percent(pct).unwrap()
        };
        LzEncoder::lz_vaxx(Avcl::new(t))
    }

    proptest! {
        /// Threshold 0 round-trips any block bit-exactly (every accepted
        /// match degenerates to equality).
        #[test]
        fn lz_exact_roundtrip(block in super::int_block()) {
            let mut enc = lz_at(0);
            let e = enc.encode(&block, NodeId(1));
            prop_assert_eq!(e.word_count() as usize, block.len());
            let d = LzDecoder::new().decode(&e, NodeId(0)).block;
            prop_assert_eq!(d, block);
        }

        /// Accepts-implies-bound: every decoded word of an approximable
        /// block lies within the configured threshold of the golden word,
        /// under arbitrary per-encoder stream history.
        #[test]
        fn lz_accepts_implies_bound(
            blocks in prop::collection::vec((super::skewed_block(), any::<bool>()), 1..20),
            pct in 1u32..=50,
        ) {
            let mut enc = lz_at(pct);
            let mut dec = LzDecoder::new();
            for (block, approx) in &blocks {
                let block = block.clone().with_approximable(*approx);
                let e = enc.encode(&block, NodeId(1));
                let d = dec.decode(&e, NodeId(0)).block;
                if *approx {
                    for (p, a) in block.words().iter().zip(d.words()) {
                        let err = Avcl::relative_error(*p, *a, DataType::Int).unwrap();
                        prop_assert!(err <= pct as f64 / 100.0 + 1e-12, "{p:#x} -> {a:#x}");
                    }
                } else {
                    prop_assert_eq!(&d, &block);
                }
            }
        }

        /// The per-block scratch (window, match finder, MTF list, don't-care
        /// masks) carries no state across blocks: an encoder that has
        /// already encoded block `a` encodes block `b` exactly as a fresh
        /// encoder does.
        #[test]
        fn lz_scratch_carries_no_state_across_blocks(
            a in super::skewed_block(),
            b in super::skewed_block(),
            approx_a in any::<bool>(),
            approx_b in any::<bool>(),
            pct in 0u32..=50,
        ) {
            let mut used = lz_at(pct);
            used.encode(&a.with_approximable(approx_a), NodeId(1));
            let b = b.with_approximable(approx_b);
            prop_assert_eq!(used.encode(&b, NodeId(1)), lz_at(pct).encode(&b, NodeId(1)));
        }

        /// Float path: value error bounded on normal floats.
        #[test]
        fn lz_float_threshold(vals in prop::collection::vec(prop::num::f32::NORMAL, 1..=BLOCK_WORDS)) {
            let mut enc = lz_at(10);
            let block = CacheBlock::from_f32(&vals);
            let d = LzDecoder::new().decode(&enc.encode(&block, NodeId(1)), NodeId(0)).block;
            for (p, a) in vals.iter().zip(d.as_f32()) {
                prop_assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
            }
        }

        /// Structural invariants of the emitted stream: spans cover the
        /// block exactly, every distance is in range and backed by enough
        /// window, and no foreign code kinds appear. The caps are the wire
        /// format's: a 3-bit length field and a 6-bit distance field.
        #[test]
        fn lz_stream_well_formed(block in super::skewed_block(), pct in 0u32..=50) {
            let mut enc = lz_at(pct);
            let e = enc.encode(&block, NodeId(1));
            let seed_len = anoc_compression::lz::SEED_DICT.len();
            let mut covered = 0usize;
            for code in e.codes() {
                match *code {
                    WordCode::Raw { .. } => covered += 1,
                    WordCode::Match { distance, len, dist_bits, .. } => {
                        prop_assert!((1..=8).contains(&len));
                        prop_assert!((1..=64).contains(&distance));
                        prop_assert!(
                            (distance as usize) <= seed_len + covered,
                            "distance {distance} exceeds window at word {covered}"
                        );
                        prop_assert!(dist_bits == 3 || dist_bits == 7);
                        covered += len as usize;
                    }
                    ref other => prop_assert!(false, "foreign code {other:?}"),
                }
            }
            prop_assert_eq!(covered, block.len());
        }
    }
}
