//! Adaptive compression: turn the encoder off when it stops paying.
//!
//! Jin et al. (MICRO'08) — the paper's DI-COMP source — propose "a data
//! compression mechanism that learns frequent data patterns ... and
//! adaptively turns the compression on/off based on the efficacy of
//! compression on the network performance". [`AdaptiveEncoder`] wraps any
//! [`BlockEncoder`] with that controller: while ON it tracks the achieved
//! compression ratio over a window of blocks and switches OFF when the
//! ratio drops below the profitability threshold (tag overhead plus codec
//! latency would then hurt); while OFF it bypasses compression — zero added
//! latency — and periodically probes a block through the encoder to detect
//! when compression becomes worthwhile again.

use anoc_core::codec::{BlockEncoder, CodecActivity, EncodedBlock, Notification, NullCodec};
use anoc_core::data::{CacheBlock, NodeId};

/// Blocks per evaluation window while ON.
const WINDOW_BLOCKS: u32 = 64;

/// Minimum compression ratio that keeps the encoder ON (must cover the tag
/// overhead and the 3-cycle latency; Jin et al. use a small margin over 1.0).
const MIN_RATIO: f64 = 1.10;

/// While OFF, probe one block through the encoder every this many blocks.
const PROBE_INTERVAL: u32 = 16;

/// Consecutive profitable probes required to switch back ON.
const PROBES_TO_REENABLE: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    On,
    Off,
}

/// A [`BlockEncoder`] wrapper implementing the adaptive on/off controller.
pub struct AdaptiveEncoder<E> {
    inner: E,
    mode: Mode,
    window_in_bits: u64,
    window_out_bits: u64,
    window_count: u32,
    off_count: u32,
    good_probes: u32,
    /// Mode transitions observed (for tests/telemetry).
    transitions: u64,
}

impl<E: BlockEncoder> AdaptiveEncoder<E> {
    /// Wraps `inner`, starting ON.
    pub fn new(inner: E) -> Self {
        AdaptiveEncoder {
            inner,
            mode: Mode::On,
            window_in_bits: 0,
            window_out_bits: 0,
            window_count: 0,
            off_count: 0,
            good_probes: 0,
            transitions: 0,
        }
    }

    /// Whether compression is currently enabled.
    pub fn is_on(&self) -> bool {
        self.mode == Mode::On
    }

    /// Number of ON↔OFF transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Read access to the wrapped encoder.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn block_ratio(block: &CacheBlock, encoded: &EncodedBlock) -> f64 {
        let out = encoded.payload_bits().max(1) as f64;
        block.size_bits() as f64 / out
    }
}

impl<E: BlockEncoder> BlockEncoder for AdaptiveEncoder<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn encode(&mut self, block: &CacheBlock, dest: NodeId) -> EncodedBlock {
        match self.mode {
            Mode::On => {
                let encoded = self.inner.encode(block, dest);
                self.window_in_bits += block.size_bits();
                self.window_out_bits += encoded.payload_bits() as u64;
                self.window_count += 1;
                if self.window_count >= WINDOW_BLOCKS {
                    let ratio = self.window_in_bits as f64 / self.window_out_bits.max(1) as f64;
                    if ratio < MIN_RATIO {
                        self.mode = Mode::Off;
                        self.transitions += 1;
                        self.off_count = 0;
                        self.good_probes = 0;
                    }
                    self.window_in_bits = 0;
                    self.window_out_bits = 0;
                    self.window_count = 0;
                }
                encoded
            }
            Mode::Off => {
                self.off_count += 1;
                if self.off_count.is_multiple_of(PROBE_INTERVAL) {
                    // Probe: run the encoder for real on this block.
                    let encoded = self.inner.encode(block, dest);
                    if Self::block_ratio(block, &encoded) >= MIN_RATIO {
                        self.good_probes += 1;
                        if self.good_probes >= PROBES_TO_REENABLE {
                            self.mode = Mode::On;
                            self.transitions += 1;
                        }
                    } else {
                        self.good_probes = 0;
                    }
                    encoded
                } else {
                    // Bypass: every word raw with no tag, as the Baseline sends it.
                    NullCodec.encode(block, dest)
                }
            }
        }
    }

    /// The compression latency is only paid while the encoder is ON.
    fn compression_latency(&self) -> u64 {
        match self.mode {
            Mode::On => self.inner.compression_latency(),
            Mode::Off => 0,
        }
    }

    fn apply_notification(&mut self, from: NodeId, note: Notification) {
        self.inner.apply_notification(from, note);
    }

    fn activity(&self) -> CodecActivity {
        self.inner.activity()
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for AdaptiveEncoder<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveEncoder")
            .field("inner", &self.inner)
            .field("mode", &self.mode)
            .field("transitions", &self.transitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{FpDecoder, FpEncoder};
    use anoc_core::codec::BlockDecoder;
    use anoc_core::rng::Pcg32;

    fn incompressible_block(rng: &mut Pcg32) -> CacheBlock {
        // High-entropy 32-bit values fit no frequent pattern.
        CacheBlock::from_i32(
            &(0..16)
                .map(|_| (rng.next_u32() | 0x8080_8080) as i32)
                .collect::<Vec<_>>(),
        )
        .with_approximable(false)
    }

    fn compressible_block() -> CacheBlock {
        CacheBlock::from_i32(&[0, 1, -2, 3, 0, 0, 7, -8, 0, 1, 2, 3, 0, 0, 0, 0])
    }

    /// Encodes `n` blocks from `block`.
    fn feed(enc: &mut AdaptiveEncoder<FpEncoder>, n: u32, mut block: impl FnMut() -> CacheBlock) {
        for _ in 0..n {
            enc.encode(&block(), NodeId(1));
        }
    }

    #[test]
    fn turns_off_on_incompressible_traffic() {
        let mut enc = AdaptiveEncoder::new(FpEncoder::fp_comp());
        assert!(enc.is_on());
        let mut rng = Pcg32::seed_from_u64(1);
        feed(&mut enc, WINDOW_BLOCKS, || incompressible_block(&mut rng));
        assert!(!enc.is_on(), "should have turned off after one bad window");
        assert_eq!(enc.transitions(), 1);
        // While off, latency is zero and blocks travel tag-free.
        assert_eq!(enc.compression_latency(), 0);
        let e = enc.encode(&incompressible_block(&mut rng), NodeId(1));
        assert_eq!(e.payload_bits(), 512, "bypass adds no tag overhead");
    }

    #[test]
    fn probes_reenable_on_compressible_traffic() {
        let mut enc = AdaptiveEncoder::new(FpEncoder::fp_comp());
        let mut rng = Pcg32::seed_from_u64(2);
        feed(&mut enc, WINDOW_BLOCKS, || incompressible_block(&mut rng));
        assert!(!enc.is_on());
        // Compressible traffic: every PROBE_INTERVAL-th block is probed, and
        // PROBES_TO_REENABLE good probes in a row re-enable.
        feed(
            &mut enc,
            PROBE_INTERVAL * PROBES_TO_REENABLE - 1,
            compressible_block,
        );
        assert!(!enc.is_on(), "re-enabled before the last probe");
        feed(&mut enc, 1, compressible_block);
        assert!(enc.is_on(), "probes should re-enable compression");
        assert_eq!(enc.transitions(), 2);
        assert_eq!(enc.compression_latency(), 3);
    }

    #[test]
    fn stays_on_for_compressible_traffic() {
        let mut enc = AdaptiveEncoder::new(FpEncoder::fp_comp());
        feed(&mut enc, 4 * WINDOW_BLOCKS, compressible_block);
        assert!(enc.is_on());
        assert_eq!(enc.transitions(), 0);
    }

    #[test]
    fn every_mode_is_lossless() {
        let mut enc = AdaptiveEncoder::new(FpEncoder::fp_comp());
        let mut dec = FpDecoder::new();
        let mut rng = Pcg32::seed_from_u64(3);
        // Alternate phases longer than a window plus the re-enabling probes
        // to force transitions, decoding everything.
        for phase in 0..6 {
            for _ in 0..WINDOW_BLOCKS + PROBE_INTERVAL * PROBES_TO_REENABLE {
                let block = if phase % 2 == 0 {
                    incompressible_block(&mut rng)
                } else {
                    compressible_block()
                };
                let e = enc.encode(&block, NodeId(1));
                let d = dec.decode(&e, NodeId(0)).block;
                assert_eq!(d, block);
            }
        }
        assert!(enc.transitions() >= 2, "phases should toggle the mode");
        assert_eq!(enc.name(), "FP-COMP");
        assert!(format!("{enc:?}").contains("AdaptiveEncoder"));
    }

    #[test]
    fn default_config_is_sane() {
        // A fresh encoder is on and judges a whole window before it turns
        // off, even on traffic that never compresses.
        let mut enc = AdaptiveEncoder::new(FpEncoder::fp_comp());
        assert!(enc.is_on());
        assert_eq!(enc.inner().name(), "FP-COMP");
        let mut rng = Pcg32::seed_from_u64(4);
        feed(&mut enc, WINDOW_BLOCKS - 1, || {
            incompressible_block(&mut rng)
        });
        assert!(enc.is_on(), "turned off before a full window");
    }
}
