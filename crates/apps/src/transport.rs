//! Value-path transports: what an application's data looks like after
//! crossing the (possibly approximate) network.
//!
//! The paper studies application output error with a Pin-based coherent cache
//! simulator that "emulates packet response whenever a miss happens" (§5.4):
//! functionally, every cache block transferred between nodes passes once
//! through the VAXX + compression encoder and the paired decoder. A
//! [`BlockTransport`] captures exactly that value path (timing is the NoC
//! simulator's business); kernels run against either the precise identity
//! transport or a codec-backed approximate one.

use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
use anoc_compression::fp::{FpDecoder, FpEncoder};
use anoc_core::avcl::Avcl;
use anoc_core::codec::{BlockDecoder, BlockEncoder, EncodeStats};
use anoc_core::data::{CacheBlock, NodeId, BLOCK_WORDS};
use anoc_core::threshold::ErrorThreshold;

/// One hop of the data's journey: source NI encode → destination NI decode.
pub trait BlockTransport {
    /// Transmits a block, returning what the consumer receives.
    fn transmit(&mut self, block: CacheBlock) -> CacheBlock;

    /// Transmits a slice of `f32` values (chunked into [`BLOCK_WORDS`]-word
    /// blocks; the tail chunk is zero-padded on the wire and trimmed on
    /// arrival).
    fn transmit_f32(&mut self, values: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(BLOCK_WORDS) {
            let mut words = [0f32; BLOCK_WORDS];
            words[..chunk.len()].copy_from_slice(chunk);
            let rx = self.transmit(CacheBlock::from_f32(&words));
            out.extend(rx.as_f32().into_iter().take(chunk.len()));
        }
        out
    }

    /// Transmits a slice of `i32` values (chunked like [`transmit_f32`]).
    ///
    /// [`transmit_f32`]: BlockTransport::transmit_f32
    fn transmit_i32(&mut self, values: &[i32]) -> Vec<i32> {
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(BLOCK_WORDS) {
            let mut words = [0i32; BLOCK_WORDS];
            words[..chunk.len()].copy_from_slice(chunk);
            let rx = self.transmit(CacheBlock::from_i32(&words));
            out.extend(rx.as_i32().into_iter().take(chunk.len()));
        }
        out
    }
}

/// The identity transport: bit-exact delivery (the precise baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreciseTransport;

impl BlockTransport for PreciseTransport {
    fn transmit(&mut self, block: CacheBlock) -> CacheBlock {
        block
    }
}

/// A codec-backed transport: blocks travel through a real APPROX-NoC
/// encoder/decoder pair between two fixed endpoints, with dictionary
/// notifications applied instantly.
pub struct ApproxTransport {
    encoder: Box<dyn BlockEncoder>,
    decoder: Box<dyn BlockDecoder>,
    src: NodeId,
    dest: NodeId,
    /// How the encoder coded every word sent so far.
    coded: EncodeStats,
}

impl std::fmt::Debug for ApproxTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApproxTransport")
            .field("mechanism", &self.encoder.name())
            .finish()
    }
}

impl ApproxTransport {
    /// An FP-VAXX transport at the given error threshold.
    pub fn fp_vaxx(threshold: ErrorThreshold) -> Self {
        ApproxTransport {
            encoder: Box::new(FpEncoder::fp_vaxx(Avcl::new(threshold))),
            decoder: Box::new(FpDecoder::new()),
            src: NodeId(0),
            dest: NodeId(1),
            coded: EncodeStats::default(),
        }
    }

    /// A DI-VAXX transport at the given error threshold.
    pub fn di_vaxx(threshold: ErrorThreshold) -> Self {
        let config = DiConfig::for_nodes(2);
        ApproxTransport {
            encoder: Box::new(DiEncoder::di_vaxx(config, Avcl::new(threshold))),
            decoder: Box::new(DiDecoder::new(config)),
            src: NodeId(0),
            dest: NodeId(1),
            coded: EncodeStats::default(),
        }
    }

    /// The mechanism name of the underlying encoder.
    pub fn mechanism(&self) -> &'static str {
        self.encoder.name()
    }

    /// How the encoder coded every word sent so far: exactly, approximately
    /// or raw.
    pub fn coded_words(&self) -> EncodeStats {
        self.coded
    }
}

impl BlockTransport for ApproxTransport {
    fn transmit(&mut self, block: CacheBlock) -> CacheBlock {
        let encoded = self.encoder.encode(&block, self.dest);
        self.coded.absorb_block(&encoded);
        let result = self.decoder.decode(&encoded, self.src);
        for (to, note) in result.notifications {
            debug_assert_eq!(to, self.src);
            let _ = to;
            self.encoder.apply_notification(self.dest, note);
        }
        result.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_transport_is_identity() {
        let mut t = PreciseTransport;
        let vals = [1.5f32, -2.0, 0.0, 123.456];
        assert_eq!(t.transmit_f32(&vals), vals);
        let ints = [7i32, -9, 0, i32::MAX];
        assert_eq!(t.transmit_i32(&ints), ints);
    }

    #[test]
    fn fp_vaxx_transport_bounds_error() {
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        assert_eq!(t.mechanism(), "FP-VAXX");
        let vals: Vec<f32> = (0..100).map(|i| 1.0 + i as f32 * 0.37).collect();
        let rx = t.transmit_f32(&vals);
        assert_eq!(rx.len(), vals.len());
        for (p, a) in vals.iter().zip(&rx) {
            assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
        }
        // 100 words in seven blocks, the last padded to 16 on the wire.
        let coded = t.coded_words();
        assert_eq!(coded.words, 112);
        assert_eq!(coded.exact_encoded + coded.approx_encoded + coded.raw, 112);
        assert!(coded.approx_encoded > 0, "{coded:?}");
    }

    #[test]
    fn di_vaxx_transport_learns_and_bounds_error() {
        let mut t = ApproxTransport::di_vaxx(ErrorThreshold::from_percent(10).unwrap());
        // Repeated similar values let the dictionary learn, then approximate.
        for round in 0..20 {
            let base = 10_000.0 + (round % 3) as f32 * 100.0;
            let vals = vec![base; 32];
            let rx = t.transmit_f32(&vals);
            for (p, a) in vals.iter().zip(&rx) {
                assert!(((a - p) / p).abs() <= 0.10 + 1e-6, "{p} -> {a}");
            }
        }
    }

    #[test]
    fn tail_chunks_are_trimmed() {
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::default());
        let vals = [3.0f32; 19]; // 16 + 3
        assert_eq!(t.transmit_f32(&vals).len(), 19);
        let ints = [5i32; 17];
        assert_eq!(t.transmit_i32(&ints).len(), 17);
        assert!(format!("{t:?}").contains("FP-VAXX"));
    }
}

/// A worst-case-within-budget transport: every approximable word is replaced
/// by the *farthest* value its don't-care window tolerates.
///
/// Honest codecs realise far less error than the budget (FP-VAXX's float
/// matches truncate at most the low mantissa halfword, well under 1%
/// relative). This channel instead exercises the full budget — the
/// pessimistic bound on the Figure 16 question "what does an `e%` data error
/// budget do to application output quality?". Real mechanisms land between
/// this curve and zero.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialTransport {
    avcl: Avcl,
}

impl AdversarialTransport {
    /// Creates a worst-case channel for the given threshold.
    pub fn new(threshold: ErrorThreshold) -> Self {
        AdversarialTransport {
            avcl: Avcl::new(threshold),
        }
    }
}

impl BlockTransport for AdversarialTransport {
    fn transmit(&mut self, mut block: CacheBlock) -> CacheBlock {
        if !block.is_approximable() {
            return block;
        }
        let dtype = block.dtype();
        for w in block.words_mut() {
            let mask = self.avcl.approx_pattern(*w, dtype).mask();
            // Pick the masked-bit endpoint farthest from the original.
            let zeros = *w & !mask;
            let ones = *w | mask;
            if w.abs_diff(zeros) >= w.abs_diff(ones) {
                *w = zeros;
            } else {
                *w = ones;
            }
        }
        block
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;
    use anoc_core::avcl::Avcl;
    use anoc_core::data::DataType;

    #[test]
    fn adversarial_errors_stay_within_threshold() {
        let t = ErrorThreshold::from_percent(20).unwrap();
        let mut tr = AdversarialTransport::new(t);
        let vals: Vec<f32> = (1..200).map(|i| i as f32 * 3.7).collect();
        let rx = tr.transmit_f32(&vals);
        let mut worst: f64 = 0.0;
        for (p, a) in vals.iter().zip(&rx) {
            let err = Avcl::relative_error(p.to_bits(), a.to_bits(), DataType::F32).unwrap();
            assert!(err <= 0.20 + 1e-6, "{p} -> {a}");
            worst = worst.max(err);
        }
        // It really does spend the budget (more than half of it at worst).
        assert!(worst > 0.05, "worst-case error only {worst}");
    }

    #[test]
    fn adversarial_respects_precise_blocks() {
        let t = ErrorThreshold::from_percent(20).unwrap();
        let mut tr = AdversarialTransport::new(t);
        let block = CacheBlock::from_i32(&[1000; 4]).with_approximable(false);
        assert_eq!(tr.transmit(block.clone()), block);
    }
}
